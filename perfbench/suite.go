package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

const (
	// suiteSims is how many simulation tasks -figure5 -figure6 schedules.
	suiteSims = 115
	// suiteMinRuns is the fewest suite runs one invocation makes: enough
	// for a median and for comparing the output across runs.
	suiteMinRuns = 3
)

// suiteRun is one invocation of the cmd/experiments binary.
type suiteRun struct {
	wall     time.Duration
	rssMB    float64
	stdout   []byte
	figures  map[string]time.Duration // "figure5"/"figure6" -> elapsed, from stderr
	sims     int
	mcycles  float64 // simulated work printed on stdout (see simulatedMcycles)
	cells    int
	exitCode int
	stderr   string
}

// progressLine matches the runner's per-experiment timing line on stderr.
var progressLine = regexp.MustCompile(`(?m)^(figure[56]): (\d+) simulations in (\S+) \(j=\d+\)$`)

// runExperiments runs the suite binary once with the workload's arguments.
func runExperiments(b *bench, bin string, parent spanRef) (*suiteRun, error) {
	cmd := exec.Command(bin, "-figure5", "-figure6", "-txns", "3", "-warmup", "1",
		"-j", itoa(b.nproc), "-seed", strconv.FormatInt(b.seed, 10))
	cmd.Dir = b.tmp
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	s := b.tr.begin(parent, "experiments", "cmd/experiments -figure5 -figure6", "suite")
	start := time.Now()
	err := cmd.Run()
	r := &suiteRun{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.String(), figures: map[string]time.Duration{}}
	s.end()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return nil, fmt.Errorf("run %s: %w", bin, err)
		}
	}
	r.exitCode = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	for _, m := range progressLine.FindAllStringSubmatch(r.stderr, -1) {
		n, _ := strconv.Atoi(m[2])
		d, err := time.ParseDuration(m[3])
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", m[0], err)
		}
		r.sims += n
		r.figures[m[1]] = d
	}
	r.mcycles, r.cells = simulatedMcycles(r.stdout)
	return r, nil
}

// ok reports whether a run succeeded and printed the same bytes as the
// invocation's first run.
func (r *suiteRun) ok(first *suiteRun) bool {
	return r.exitCode == 0 && r.sims == suiteSims && len(r.figures) == 2 &&
		r.cells == suiteCells && bytes.Equal(r.stdout, first.stdout)
}

var (
	// fig5Row is a Figure 5 table row: experiment, simulated Mcycles, speedup.
	fig5Row = regexp.MustCompile(`^(SEQUENTIAL|TLS-SEQ|NO SUB-THREAD|BASELINE|NO SPECULATION) +(\d+\.\d+) +\d+\.\d+x`)
	// fig6Row is a Figure 6 table row: sub-thread count, then one speedup
	// over SEQUENTIAL per sub-thread size.
	fig6Row = regexp.MustCompile(`^[248] +(.*)$`)
	// benchLine opens one benchmark's block in either figure.
	benchLine = regexp.MustCompile(`^\(([A-Z0-9 ]+)\)`)
)

// suiteCells is how many simulated results the suite prints: 35 Figure 5
// rows and 75 Figure 6 cells.
const suiteCells = 35 + 75

// simulatedMcycles totals the simulated time of every result the suite
// prints, in millions of cycles: Figure 5 rows directly, Figure 6 cells as
// the benchmark's SEQUENTIAL Mcycles over the printed speedup. It is the
// suite's simulated work, which varies with the input seed; dividing host
// time by it gives a speed that does not. cells counts the results found.
func simulatedMcycles(stdout []byte) (total float64, cells int) {
	seq := map[string]float64{}
	bench, fig6 := "", false
	for _, line := range strings.Split(string(stdout), "\n") {
		if strings.Contains(line, "FIGURE 6") {
			fig6 = true
		}
		if m := benchLine.FindStringSubmatch(line); m != nil {
			bench = m[1]
			continue
		}
		if m := fig5Row.FindStringSubmatch(line); m != nil && !fig6 {
			v, _ := strconv.ParseFloat(m[2], 64)
			if m[1] == "SEQUENTIAL" {
				seq[bench] = v
			}
			total += v
			cells++
			continue
		}
		if m := fig6Row.FindStringSubmatch(line); m != nil && fig6 && seq[bench] > 0 {
			for _, f := range strings.Fields(m[1]) {
				speedup, err := strconv.ParseFloat(strings.TrimSuffix(f, "*"), 64)
				if err != nil || speedup <= 0 {
					return 0, 0
				}
				total += seq[bench] / speedup
				cells++
			}
		}
	}
	return total, cells
}

// runSuite is the researcher's workload: build cmd/experiments, then run the
// paper's Figure 5 and 6 suite back to back until the window is spent and
// at least suiteMinRuns have run.
func runSuite(b *bench) (*outcome, error) {
	bin, setup, err := buildBinary(b, "./cmd/experiments", 3)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var walls, rss, rates, speeds []float64
	var first *suiteRun
	start := time.Now()
	for o.attempted < suiteMinRuns || time.Since(start) < b.window {
		r, err := runExperiments(b, bin, spanRef{})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = r
		}
		o.attempted++
		if !r.ok(first) {
			o.failed++
			o.details["failure"] = fmt.Sprintf("exit %d, %d sims, %d results, stdout identical %v: %s",
				r.exitCode, r.sims, r.cells, bytes.Equal(r.stdout, first.stdout), r.stderr)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		rates = append(rates, float64(r.sims)/r.wall.Seconds())
		speeds = append(speeds, r.mcycles/r.wall.Seconds())
	}
	if len(walls) == 0 {
		return o, nil
	}
	o.set("setup_s", setup, "s")
	o.set("peak_rss_mb", median(rss), "MB")
	o.set("ops_per_s", median(rates), "1/s")
	o.set("sim_mcycles_per_s", median(speeds), "Mcycles/s")
	o.set("p50_ms", 1000*median(walls), "ms")
	// No percentile above the median has ten of a few runs beyond it, so
	// the tail a suite run can report is its median.
	o.set("tail_ms", 1000*median(walls), "ms")
	o.details["suite_runs_s"] = walls
	o.details["simulated_mcycles"] = first.mcycles
	o.details["stdout_bytes"] = len(first.stdout)
	return o, nil
}

// suiteGrid lists the {benchmark, machine} tasks of -figure5 -figure6 in
// the runner's order: Figure 5 is every benchmark on the five Figure 5
// machines; Figure 6 is each TLS-profitable benchmark on SEQUENTIAL plus
// the 3 x 5 sub-thread count and size sweep.
func suiteGrid(seed int64) []gridTask {
	var tasks []gridTask
	spec := func(bn tpcc.Benchmark) workload.Spec {
		s := workload.DefaultSpec(bn)
		s.Txns, s.Warmup, s.Seed = 3, 1, seed
		return s
	}
	for _, bn := range tpcc.All() {
		for _, e := range []workload.Experiment{workload.Sequential, workload.TLSSeq,
			workload.NoSubthread, workload.Baseline, workload.NoSpeculation} {
			tasks = append(tasks, gridTask{spec(bn), e.SequentialSoftware(), workload.Machine(e)})
		}
	}
	for _, bn := range tpcc.TLSProfitable() {
		tasks = append(tasks, gridTask{spec(bn), true, workload.Machine(workload.Sequential)})
		for _, n := range []int{2, 4, 8} {
			for _, size := range []uint64{1000, 2500, 5000, 10000, 50000} {
				cfg := workload.Machine(workload.Baseline)
				cfg.TLS.SubthreadsPerEpoch = n
				cfg.SubthreadSpacing = size
				tasks = append(tasks, gridTask{spec(bn), false, cfg})
			}
		}
	}
	return tasks
}

// memoCell is a single-flight slot: an exact simulation's result, or a
// prefix group's snapshot.
type memoCell struct {
	sync.Once
	res  *sim.Result
	snap *sim.Snapshot
	err  error
}

type gridTask struct {
	spec       workload.Spec
	sequential bool
	cfg        sim.Config
}

// replaySuite runs the suite's grid in-process through the same public
// calls the runner makes — one shared workload.Builder, an exact-run memo,
// and one prefix snapshot per {spec, prefix digest} that later members fork
// from — with a span around each call. It returns the results in grid
// order and the builder's statistics.
func replaySuite(b *bench, parent spanRef) ([]*sim.Result, workload.BuildStats, error) {
	tasks := suiteGrid(b.seed)
	builder := workload.NewBuilder()
	var mu sync.Mutex
	memo := map[string]*memoCell{}
	cell := func(key string) *memoCell {
		mu.Lock()
		defer mu.Unlock()
		c := memo[key]
		if c == nil {
			c = &memoCell{}
			memo[key] = c
		}
		return c
	}
	results := make([]*sim.Result, len(tasks))
	errs := make([]error, len(tasks))
	forEach(b.nproc, len(tasks), func(i int) {
		t := tasks[i]
		req := "task-" + itoa(i)
		ts := b.tr.begin(parent, "bench", t.spec.Bench.String(), req)
		var built *workload.Built
		b.tr.timed(ts, "workload", "Builder.Build", req, func() { built = builder.Build(t.spec, t.sequential) })
		key := fmt.Sprintf("%+v/%v/", t.spec, t.sequential)
		exact := cell(key + "full/" + sim.FullDigest(t.cfg))
		exact.Do(func() {
			exact.res, exact.err = replayOne(b, ts, req, t, built, cell(key+"prefix/"+sim.PrefixDigest(t.cfg)))
		})
		results[i], errs[i] = exact.res, exact.err
		ts.end()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, workload.BuildStats{}, err
	}
	return results, builder.Stats(), nil
}

// replayOne runs one distinct simulation: sequential programs in full, TLS
// programs by forking their prefix group's snapshot, or — for the group's
// first member — in full while capturing that snapshot.
func replayOne(b *bench, parent spanRef, req string, t gridTask, built *workload.Built, g *memoCell) (*sim.Result, error) {
	var res *sim.Result
	var err error
	if t.sequential {
		b.tr.timed(parent, "sim", "sim.RunE", req, func() { res, err = sim.RunE(t.cfg, built.Program) })
		return res, err
	}
	captured := false
	g.Do(func() {
		captured = true
		cfg := t.cfg
		cfg.SnapshotAtPrefix = true
		cfg.SnapshotSink = func(s *sim.Snapshot) {
			if s.Forkable {
				g.snap = s
			}
		}
		b.tr.timed(parent, "sim", "sim.RunE+capture", req, func() { res, err = sim.RunE(cfg, built.Program) })
	})
	if captured {
		return res, err
	}
	if g.snap != nil {
		b.tr.timed(parent, "snapshot", "sim.ResumeE", req, func() { res, err = sim.ResumeE(t.cfg, built.Program, g.snap) })
		if err == nil {
			return res, nil
		}
	}
	b.tr.timed(parent, "sim", "sim.RunE", req, func() { res, err = sim.RunE(t.cfg, built.Program) })
	return res, err
}
