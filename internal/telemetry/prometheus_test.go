package telemetry

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPromWriterFormat(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("jobs_total", "Jobs.", 3)
	p.Gauge("queue_depth", "Depth.", 2)
	p.Histogram("latency_micros", "Latency.", h.Snapshot(), PromLabel{"stage", "build"})
	p.Histogram("latency_micros", "Latency.", HistogramSnapshot{}, PromLabel{"stage", "sim"})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	want := strings.Join([]string{
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# HELP queue_depth Depth.",
		"# TYPE queue_depth gauge",
		"queue_depth 2",
		"# HELP latency_micros Latency.",
		"# TYPE latency_micros histogram",
		`latency_micros_bucket{stage="build",le="0"} 1`,
		`latency_micros_bucket{stage="build",le="1"} 2`,
		`latency_micros_bucket{stage="build",le="7"} 3`,
		`latency_micros_bucket{stage="build",le="+Inf"} 3`,
		`latency_micros_sum{stage="build"} 6`,
		`latency_micros_count{stage="build"} 3`,
		`latency_micros_bucket{stage="sim",le="+Inf"} 0`,
		`latency_micros_sum{stage="sim"} 0`,
		`latency_micros_count{stage="sim"} 0`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", got, want)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm rejects the writer's own output: %v", err)
	}
}

func TestPromWriterNeverEmitsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("ratio", "A ratio that divides by zero on a fresh daemon.", math.NaN())
	p.Gauge("rate", "Same, for infinities.", math.Inf(1))
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("writer leaked a non-finite value:\n%s", out)
	}
	if !strings.Contains(out, "ratio 0") || !strings.Contains(out, "rate 0") {
		t.Errorf("non-finite values not sanitized to 0:\n%s", out)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}
}

func TestPromWriterEscapesLabelsAndHelp(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("info", "line one\nline \\two", 1, PromLabel{"v", `a"b\c` + "\nd"})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP info line one\nline \\two`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `info{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}
}

func TestPromWriterRejectsRetypedFamily(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("x_total", "X.", 1)
	p.Gauge("x_total", "X again.", 2)
	if err := p.Flush(); err == nil {
		t.Error("redeclaring a family with a different type did not error")
	}
}

func TestSnapshotWriteProm(t *testing.T) {
	m := NewMetrics()
	m.Emit(Event{Kind: EpochStart, Epoch: 1, Cycle: 10})
	m.Emit(Event{Kind: EpochCommit, Epoch: 1, Cycle: 50})
	m.Emit(Event{Kind: PrimaryViolation, Epoch: 1, Cycle: 30, Depth: 2, Instrs: 100})

	var buf bytes.Buffer
	if err := m.Snapshot().WriteProm(&buf, "tlssim"); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`tlssim_events_total{kind="epoch-start"} 1`,
		`tlssim_events_total{kind="violation-primary"} 1`,
		"# TYPE tlssim_epoch_lifetime_cycles histogram",
		"tlssim_violation_rewind_depth_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q:\n%s", want, out)
		}
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}

	// Determinism: two renderings of the same snapshot are byte-identical.
	var buf2 bytes.Buffer
	if err := m.Snapshot().WriteProm(&buf2, "tlssim"); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteProm output is not deterministic")
	}
}

func TestLintPromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"nan value":          "# TYPE x gauge\nx NaN\n",
		"inf value":          "# TYPE x gauge\nx +Inf\n",
		"no type":            "orphan 1\n",
		"bad name":           "# TYPE 9x gauge\n9x 1\n",
		"bad label":          "# TYPE x gauge\nx{9l=\"v\"} 1\n",
		"unterminated label": "# TYPE x gauge\nx{l=\"v 1\n",
		"retyped family":     "# TYPE x gauge\n# TYPE x counter\nx 1\n",
		"unknown type":       "# TYPE x sparkline\nx 1\n",
		"non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 5\n",
		"inf bucket mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_sum 9\nh_count 5\n",
		"missing inf bucket": "# TYPE h histogram\nh_sum 9\nh_count 5\n",
		"bare histogram sample": "# TYPE h histogram\nh 1\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"split family": "# TYPE x gauge\n# TYPE y gauge\n" +
			`x{n="a"} 1` + "\ny 1\n" + `x{n="b"} 1` + "\n",
	}
	for name, doc := range cases {
		if err := LintProm([]byte(doc)); err == nil {
			t.Errorf("%s: linter accepted malformed document:\n%s", name, doc)
		}
	}
}

func TestLintPromAcceptsValid(t *testing.T) {
	doc := "# A bare comment.\n" +
		"# HELP up Whether the target is up.\n# TYPE up gauge\nup 1\n" +
		"# TYPE reqs_total counter\nreqs_total{code=\"200\"} 10 1712000000\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 1` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 3.5\nh_count 2\n"
	if err := LintProm([]byte(doc)); err != nil {
		t.Errorf("linter rejected a valid document: %v", err)
	}
}

// TestLintPromFile lints an exposition document named by PROMLINT_FILE —
// the hook scripts/tlsd-smoke.sh uses to validate a live daemon's /metrics
// scrape with the in-repo linter. Skipped when the variable is unset.
func TestLintPromFile(t *testing.T) {
	path := os.Getenv("PROMLINT_FILE")
	if path == "" {
		t.Skip("PROMLINT_FILE not set (used by scripts/tlsd-smoke.sh)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if err := LintProm(data); err != nil {
		t.Fatalf("%s is not valid Prometheus text exposition: %v", path, err)
	}
}

// TestPromStructRendersDeclarations pins every rule of PromWriter.Struct:
// kind from type, nested prefixes with help overrides, slice element
// labels, one-hot enums, constant labels, flattened embedding, nil and
// untagged fields skipped.
func TestPromStructRendersDeclarations(t *testing.T) {
	type link struct {
		State string `prom:"state" enum:"up,down" help:"Link state."`
		Trips uint64 `prom:"trips_total" help:"Trips."`
	}
	type peer struct {
		URL  string `prom:"node,label"`
		Up   bool   `prom:"up" help:"Peer up."`
		Link link   `prom:"link" help.trips_total:"Peer link trips."`
	}
	type counters struct {
		Jobs uint64 `prom:"jobs_total" help:"Jobs."`
	}
	type snapshot struct {
		Ratio   float64           `prom:"ratio" help:"Ratio."`
		Size    int64             `prom:"size" help:"Size."`
		JSON    uint64            `json:"json_only"`
		Missing *link             `prom:"missing"`
		Link    *link             `prom:"link"`
		Peers   []peer            `prom:"peer"`
		Lat     HistogramSnapshot `prom:"lat" label:"stage=a" help:"Latency."`
		Lat2    HistogramSnapshot `prom:"lat" label:"stage=b"`
		counters
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Struct("x", snapshot{
		Ratio: 0.5, Size: 7, JSON: 9,
		Link:     &link{State: "down", Trips: 2},
		Peers:    []peer{{URL: "http://a", Up: true, Link: link{State: "up", Trips: 1}}},
		counters: counters{Jobs: 3},
	})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := strings.Join([]string{
		"# HELP x_ratio Ratio.", "# TYPE x_ratio gauge", "x_ratio 0.5",
		"# HELP x_size Size.", "# TYPE x_size gauge", "x_size 7",
		"# HELP x_link_state Link state.", "# TYPE x_link_state gauge",
		`x_link_state{state="up"} 0`, `x_link_state{state="down"} 1`,
		"# HELP x_link_trips_total Trips.", "# TYPE x_link_trips_total counter", "x_link_trips_total 2",
		"# HELP x_peer_up Peer up.", "# TYPE x_peer_up gauge", `x_peer_up{node="http://a"} 1`,
		"# HELP x_peer_link_state Link state.", "# TYPE x_peer_link_state gauge",
		`x_peer_link_state{node="http://a",state="up"} 1`, `x_peer_link_state{node="http://a",state="down"} 0`,
		"# HELP x_peer_link_trips_total Peer link trips.", "# TYPE x_peer_link_trips_total counter",
		`x_peer_link_trips_total{node="http://a"} 1`,
		"# HELP x_lat Latency.", "# TYPE x_lat histogram",
		`x_lat_bucket{stage="a",le="+Inf"} 0`, `x_lat_sum{stage="a"} 0`, `x_lat_count{stage="a"} 0`,
		`x_lat_bucket{stage="b",le="+Inf"} 0`, `x_lat_sum{stage="b"} 0`, `x_lat_count{stage="b"} 0`,
		"# HELP x_jobs_total Jobs.", "# TYPE x_jobs_total counter", "x_jobs_total 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", got, want)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}

	// A tagged field of a type with no rendering is a declaration error.
	p = NewPromWriter(&bytes.Buffer{})
	p.Struct("x", struct {
		Name string `prom:"name"`
	}{})
	if err := p.Flush(); err == nil {
		t.Error("a tagged string without enum rendered without error")
	}
}

// Samples of one family arriving between another family's are grouped
// under the family's header.
func TestPromWriterGroupsFamilies(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("up", "Up.", 1, PromLabel{"node", "a"})
	p.Counter("reqs_total", "Requests.", 2, PromLabel{"node", "a"})
	p.Gauge("up", "Up.", 0, PromLabel{"node", "b"})
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := "# HELP up Up.\n# TYPE up gauge\n" + `up{node="a"} 1` + "\n" + `up{node="b"} 0` + "\n" +
		"# HELP reqs_total Requests.\n# TYPE reqs_total counter\n" + `reqs_total{node="a"} 2` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition output:\n%s\nwant:\n%s", got, want)
	}
	if err := LintProm(buf.Bytes()); err != nil {
		t.Errorf("LintProm: %v", err)
	}
}

func TestWantsProm(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                          false,
		"*/*":                       false,
		"application/json":          false,
		"text/plain":                true,
		"TEXT/PLAIN; version=0.0.4": true,
		"application/openmetrics-text;version=1.0.0, text/plain": true,
	} {
		if got := WantsProm(accept); got != want {
			t.Errorf("WantsProm(%q) = %v, want %v", accept, got, want)
		}
	}
}
