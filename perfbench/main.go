// Command perfbench is the repository benchmark: one command that runs a
// named workload against the simulator and its serving stack, checks every
// output it produces, and prints its metrics as one JSON line.
//
//	sh perfbench/run.sh --workload suite|cold --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced per-layer pass instead and prints the per-layer metrics. The
// last line of standard output is always the result object; the line before
// it is a report with the host stamp and the details behind each number.
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"subthreads/internal/version"
)

// metric is one measured value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload (or one traced pass) measured.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// details go to the report line: sample counts, per-rung tables, the
	// simulated-statistics ledger — everything a reader needs to trust
	// the headline numbers.
	details map[string]any
	// ledger holds the simulated-statistics totals of the workload's
	// fixed run set (see ledger in serve.go); builds counts real
	// workload builds. The traced run reports both.
	ledger map[string]uint64
	builds int
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, details: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// add folds another outcome's operation counts, metrics and details in.
func (o *outcome) add(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for k, v := range p.metrics {
		o.metrics[k] = v
	}
	for k, v := range p.details {
		o.details[k] = v
	}
	if p.ledger != nil {
		o.ledger = p.ledger
	}
	o.builds += p.builds
}

// bench is one invocation's context.
type bench struct {
	root   string        // repository checkout the benchmark builds from
	build  string        // directory for every file the run writes
	tmp    string        // this run's scratch directory under build
	seed   int64         // workload seed
	window time.Duration // how long one run measures
	nproc  int           // client goroutines and connections never exceed it
	tr     *tracer       // nil in untraced runs
}

// endToEnd lists the end-to-end metrics every workload prints with
// --trace 0; README.md gives their meaning on each workload.
var endToEnd = []string{"setup_s", "peak_rss_mb", "ops_per_s", "sim_mcycles_per_s", "p50_ms", "tail_ms"}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: suite or cold")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 15, "how long one run measures")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
		root    = flag.String("root", ".", "repository checkout to build and measure")
		build   = flag.String("build", ".bench_build", "directory for build outputs and run files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *root, *build); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int, root, build string) error {
	workloads := map[string]func(*bench) (*outcome, error){
		"suite": runSuite,
		"cold":  runCold,
	}
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want suite or cold)", name)
	}
	if seconds < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("bad -seconds %d or -trace %d", seconds, traced)
	}
	var err error
	if root, err = filepath.Abs(root); err != nil {
		return err
	}
	if build, err = filepath.Abs(build); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "experiments")); err != nil {
		return fmt.Errorf("no repository checkout at %s: %w", root, err)
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(build, "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		root:   root,
		build:  build,
		tmp:    tmp,
		seed:   seed,
		window: time.Duration(seconds) * time.Second,
		nproc:  runtime.NumCPU(),
	}
	var out *outcome
	var want []string
	if traced == 1 {
		b.tr = newTracer()
		out, err = runTraced(b, name)
		want = perLayer
	} else {
		out, err = fn(b)
		want = endToEnd
	}
	if err != nil {
		return err
	}
	for _, m := range want {
		if _, ok := out.metrics[m]; !ok {
			return fmt.Errorf("workload %s did not measure %s", name, m)
		}
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		metrics[m] = out.metrics[m]
	}

	report := map[string]any{
		"workload": name,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    traced,
		"host":     version.Host(),
		"details":  out.details,
	}
	if err := printJSON(report); err != nil {
		return err
	}
	return printJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}

// itoa is strconv.Itoa, short enough to keep argument lists readable.
func itoa(n int) string { return strconv.Itoa(n) }
