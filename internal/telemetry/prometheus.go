package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format this encoder produces (version 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsProm reports whether an HTTP Accept header asks for the Prometheus
// text exposition (text/plain or the OpenMetrics type) rather than JSON.
func WantsProm(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(mt)) {
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// PromLabel is one name="value" pair on a Prometheus series.
type PromLabel struct {
	Name  string
	Value string
}

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) without any client-library dependency. It writes one
// `# HELP` / `# TYPE` header per metric family and groups each family's
// samples under it, whatever order they arrive in (repeated calls with the
// same name — e.g. one histogram per label value — share the family), and
// it never emits NaN or ±Inf sample values: non-finite inputs are written
// as 0, so a scrape of a freshly started process is always clean.
//
// The exposition is buffered until Flush, which writes it and returns the
// first error: a family redeclared with another type, a Struct field that
// cannot render, or the write itself.
type PromWriter struct {
	w        io.Writer
	err      error
	families map[string]*promFamily
	order    []*promFamily // first-seen order
}

type promFamily struct {
	typ string
	buf bytes.Buffer // header and samples
}

// NewPromWriter returns an exposition writer over w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, families: make(map[string]*promFamily)}
}

// Counter writes one counter sample. Counter names should end in _total by
// Prometheus convention.
func (p *PromWriter) Counter(name, help string, v uint64, labels ...PromLabel) {
	sample(p.family(name, help, "counter"), name, labels, float64(v))
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...PromLabel) {
	sample(p.family(name, help, "gauge"), name, labels, v)
}

// Histogram writes one histogram series: cumulative _bucket samples (le is
// the inclusive upper bound of each retained power-of-two bucket), the +Inf
// bucket, _sum, and _count. An empty snapshot renders as a valid all-zero
// histogram.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, labels ...PromLabel) {
	buf := p.family(name, help, "histogram")
	cum := uint64(0)
	for _, b := range s.Buckets {
		cum += b.Count
		sample(buf, name+"_bucket", withLabel(labels, PromLabel{"le", strconv.FormatUint(b.Le, 10)}), float64(cum))
	}
	sample(buf, name+"_bucket", withLabel(labels, PromLabel{"le", "+Inf"}), float64(s.Count))
	sample(buf, name+"_sum", labels, float64(s.Sum))
	sample(buf, name+"_count", labels, float64(s.Count))
}

// Struct renders a metrics snapshot — a struct, or a pointer to one — whose
// fields declare their own families, so one struct is the single source of
// both the JSON document (its json tags) and the exposition. Every field
// with a `prom:"<name>"` tag renders as the family <prefix>_<name>, with
// help text from its `help` tag (a field continuing a family an earlier
// field declared, under another label value, may omit it) and constant
// labels from an optional `label:"<label>=<value>"` tag. The kind follows
// from the Go type:
//
//   - HistogramSnapshot: a histogram;
//   - an unsigned integer named *_total: a counter;
//   - any other number, or a bool (0/1): a gauge;
//   - a string with an `enum:"a,b,..."` tag: one gauge per enumerated value,
//     1 on the current one, labelled <name>="<value>";
//   - a struct or non-nil pointer to one: its own fields, under the prefix
//     <prefix>_<name>; the parent's `help.<child>` tags override the help
//     of the child families, so one struct type serves several prefixes;
//   - a slice of structs: each element as a nested struct, its series
//     labelled by the element's `prom:"<label>,label"` string field.
//
// Untagged fields stay JSON-only; an untagged embedded struct renders its
// fields under the same prefix, as encoding/json flattens it.
func (p *PromWriter) Struct(prefix string, v any) {
	p.walk(prefix, reflect.ValueOf(v), nil, "")
}

var (
	histogramType = reflect.TypeOf(HistogramSnapshot{})
	float64Type   = reflect.TypeOf(float64(0))
)

func (p *PromWriter) walk(prefix string, v reflect.Value, labels []PromLabel, parent reflect.StructTag) {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	t := v.Type()
	for i := 0; i < t.NumField() && p.err == nil; i++ {
		f, fv := t.Field(i), v.Field(i)
		tag, ok := f.Tag.Lookup("prom")
		if !ok {
			if f.Anonymous {
				p.walk(prefix, fv, labels, parent)
			}
			continue
		}
		name, opt, _ := strings.Cut(tag, ",")
		if opt == "label" {
			continue
		}
		full := prefix + "_" + name
		help := parent.Get("help." + name)
		if help == "" {
			help = f.Tag.Get("help")
		}
		ls := labels
		if l, ok := f.Tag.Lookup("label"); ok {
			k, val, _ := strings.Cut(l, "=")
			ls = withLabel(labels, PromLabel{k, val})
		}
		kind := f.Type.Kind()
		switch {
		case f.Type == histogramType:
			p.Histogram(full, help, fv.Interface().(HistogramSnapshot), ls...)
		case kind == reflect.Struct || kind == reflect.Pointer:
			p.walk(full, fv, ls, f.Tag)
		case kind == reflect.Slice:
			for j := 0; j < fv.Len(); j++ {
				p.walk(full, fv.Index(j), elemLabels(fv.Index(j), ls), f.Tag)
			}
		case kind == reflect.Bool:
			p.Gauge(full, help, boolValue(fv.Bool()), ls...)
		case kind == reflect.String && f.Tag.Get("enum") != "":
			for _, e := range strings.Split(f.Tag.Get("enum"), ",") {
				p.Gauge(full, help, boolValue(fv.String() == e), withLabel(ls, PromLabel{name, e})...)
			}
		case fv.CanUint() && strings.HasSuffix(name, "_total"):
			p.Counter(full, help, fv.Uint(), ls...)
		case fv.CanUint() || fv.CanInt() || fv.CanFloat():
			p.Gauge(full, help, fv.Convert(float64Type).Float(), ls...)
		default:
			p.err = fmt.Errorf("telemetry: field %s.%s (%s) cannot render as %s", t, f.Name, f.Type, full)
		}
	}
}

// elemLabels extends labels with the `prom:"<label>,label"` fields of one
// slice element.
func elemLabels(v reflect.Value, labels []PromLabel) []PromLabel {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if name, ok := strings.CutSuffix(t.Field(i).Tag.Get("prom"), ",label"); ok {
			labels = withLabel(labels, PromLabel{name, v.Field(i).String()})
		}
	}
	return labels
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Flush writes the exposition, family by family in first-seen order, and
// returns the first error. Call it once, after the last sample.
func (p *PromWriter) Flush() error {
	for _, f := range p.order {
		if p.err == nil {
			_, p.err = p.w.Write(f.buf.Bytes())
		}
	}
	return p.err
}

// family returns the buffer of a family, writing its HELP/TYPE header the
// first time the name appears.
func (p *PromWriter) family(name, help, typ string) *bytes.Buffer {
	f := p.families[name]
	if f == nil {
		f = &promFamily{typ: typ}
		fmt.Fprintf(&f.buf, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
		p.families[name] = f
		p.order = append(p.order, f)
	} else if f.typ != typ && p.err == nil {
		p.err = fmt.Errorf("telemetry: metric %s redeclared as %s (was %s)", name, typ, f.typ)
	}
	return &f.buf
}

func sample(buf *bytes.Buffer, name string, labels []PromLabel, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	buf.WriteString(name)
	if len(labels) > 0 {
		buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(l.Name)
			buf.WriteString(`="`)
			buf.WriteString(escapeLabel(l.Value))
			buf.WriteByte('"')
		}
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	buf.WriteByte('\n')
}

func withLabel(labels []PromLabel, extra PromLabel) []PromLabel {
	out := make([]PromLabel, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, extra)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes HELP text: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// WriteProm renders the metrics snapshot in Prometheus text exposition
// format under the given namespace: every event-kind counter as one
// `<ns>_events_total{kind="..."}` series and every histogram as
// `<ns>_<name>`. Map iteration is sorted, so identical snapshots produce
// identical bytes.
func (s Snapshot) WriteProm(w io.Writer, namespace string) error {
	p := NewPromWriter(w)
	kinds := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		p.Counter(namespace+"_events_total", "Protocol telemetry events by kind.",
			s.Counters[k], PromLabel{"kind", k})
	}
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.Histogram(namespace+"_"+n, "Distribution of "+n+".", s.Histograms[n])
	}
	return p.Flush()
}
