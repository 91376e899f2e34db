package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// MetricsSchema reduces one /metrics scrape — the JSON document and the
// Prometheus exposition of the same snapshot — to its schema, one sorted
// line per element, so a golden file can pin every key and family a daemon
// serves without pinning a single value:
//
//   - "json <path>" for every key path of the JSON document, with array
//     elements collapsed to "[]";
//   - the exposition's "# HELP" and "# TYPE" lines verbatim;
//   - "<series>{<labels>}" for every sample, value stripped and labels
//     sorted by name. The values of le and node labels, and of every label
//     on a *_build_info series, vary from run to run and become "*".
func MetricsSchema(jsonDoc, prom []byte) ([]string, error) {
	var doc any
	if err := json.Unmarshal(jsonDoc, &doc); err != nil {
		return nil, fmt.Errorf("telemetry: schema: %w", err)
	}
	set := make(map[string]bool)
	jsonPaths(doc, "", set)
	for _, line := range strings.Split(string(prom), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			set[line] = true
		default:
			set[schemaSeries(line)] = true
		}
	}
	out := make([]string, 0, len(set))
	for line := range set {
		out = append(out, line)
	}
	sort.Strings(out)
	return out, nil
}

func jsonPaths(v any, path string, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			set["json "+p] = true
			jsonPaths(child, p, set)
		}
	case []any:
		for _, child := range v {
			jsonPaths(child, path+"[]", set)
		}
	}
}

// promLabelRe matches one name="value" label pair, escapes included.
var promLabelRe = regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)

// schemaSeries strips the value from one sample line and normalizes its
// label set.
func schemaSeries(line string) string {
	name, rest, hasLabels := strings.Cut(line, "{")
	if !hasLabels {
		name, _, _ = strings.Cut(line, " ")
		return name
	}
	var labels []string
	for _, m := range promLabelRe.FindAllStringSubmatch(rest[:strings.LastIndexByte(rest, '}')+1], -1) {
		if m[1] == "le" || m[1] == "node" || strings.HasSuffix(name, "_build_info") {
			m[2] = "*"
		}
		labels = append(labels, m[1]+`="`+m[2]+`"`)
	}
	sort.Strings(labels)
	return name + "{" + strings.Join(labels, ",") + "}"
}

// PinSchema checks the schema of one /metrics scrape against a golden file
// and reports every line gained or lost; with update set it rewrites the
// file instead.
func PinSchema(golden string, jsonDoc, prom []byte, update bool) error {
	lines, err := MetricsSchema(jsonDoc, prom)
	if err != nil {
		return err
	}
	got := strings.Join(lines, "\n") + "\n"
	if update {
		return os.WriteFile(golden, []byte(got), 0o644)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		return fmt.Errorf("%w (rerun the test with -update to create it)", err)
	}
	if got == string(want) {
		return nil
	}
	pinned := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		pinned[l] = true
	}
	var diff []string
	for _, l := range lines {
		if !pinned[l] {
			diff = append(diff, "gained: "+l)
		}
		delete(pinned, l)
	}
	for l := range pinned {
		diff = append(diff, "lost:   "+l)
	}
	sort.Strings(diff)
	return fmt.Errorf("metrics schema differs from %s:\n%s", golden, strings.Join(diff, "\n"))
}
