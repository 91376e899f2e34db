package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/report"
	"subthreads/internal/service"
	"subthreads/internal/sim"
	"subthreads/internal/workload"
)

// server is an in-process tlsd: a service.Server over a cas.Store, served
// on a loopback listener.
type server struct {
	svc   *service.Server
	store *cas.Store
	hs    *http.Server
	url   string
	done  chan error
}

// startServer opens the store in dir and starts serving it with one worker
// per CPU, as tlsd does by default.
func startServer(b *bench, dir string) (*server, error) {
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &server{
		svc:   service.New(service.Options{Workers: b.nproc, Store: store}),
		store: store,
		url:   "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener after in-flight requests finish, then drains the
// service (which waits for every publish to the store) and closes the store.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if e := s.svc.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	if e := s.store.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// newClient returns an HTTP client that never opens more than n
// connections.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// reply is one POST /v1/jobs?wait=1 response.
type reply struct {
	status int
	tier   string // X-Cache-Tier for a hit, else X-Cache ("miss", "dedup")
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// post submits one spec and waits for its result.
func post(c *http.Client, url string, spec []byte) reply {
	resp, err := c.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	tier := resp.Header.Get("X-Cache-Tier")
	if tier == "" {
		tier = resp.Header.Get("X-Cache")
	}
	return reply{status: resp.StatusCode, tier: tier, body: data, err: err}
}

func mustJSON(spec service.JobSpec) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // JobSpec is plain data
	}
	return b
}

// jobSpec is a BASELINE job at the suite's size (3 measured transactions
// after 1 warm-up) with an explicit input seed.
func jobSpec(benchmark string, seed int64) service.JobSpec {
	warmup := 1
	return service.JobSpec{Benchmark: benchmark, Experiment: "BASELINE", Txns: 3, Warmup: &warmup, Seed: &seed}
}

// directRun is a spec rendered without the service: the reference bytes
// and the time each layer took.
type directRun struct {
	body          []byte
	res, seq      *sim.Result
	build         time.Duration // both programs
	tlsSim        time.Duration
	seqSim        time.Duration
	render        time.Duration
	tlsAllocs     uint64 // heap allocations during the main sim.RunE (0 unless measured)
	tlsAllocBytes uint64
}

// direct renders spec the way `tlssim -json` does — build the program, run
// the resolved machine and the sequential reference with sim.RunE, and
// render with report.BuildRun and report.WriteRun — with a span around each
// call. builder may be shared to reuse programs across specs; measureAllocs
// takes heap counters around the main simulation and must only be set
// while nothing else runs.
func direct(tr *tracer, parent spanRef, req string, builder *workload.Builder, spec service.JobSpec, measureAllocs bool) (*directRun, error) {
	r, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	d := &directRun{}
	var built, seqBuilt *workload.Built
	d.build = tr.timed(parent, "workload", "Builder.Build", req, func() { built = builder.Build(r.Spec, r.Exp.SequentialSoftware()) })
	var a0, b0 uint64
	if measureAllocs {
		a0, b0 = allocs()
	}
	d.tlsSim = tr.timed(parent, "sim", "sim.RunE", req, func() { d.res, err = sim.RunE(r.Cfg, built.Program) })
	if measureAllocs {
		a1, b1 := allocs()
		d.tlsAllocs, d.tlsAllocBytes = a1-a0, b1-b0
	}
	if err != nil {
		return nil, err
	}
	d.build += tr.timed(parent, "workload", "Builder.Build", req, func() { seqBuilt = builder.Build(r.Spec, true) })
	d.seqSim = tr.timed(parent, "sim", "sim.RunE", req, func() {
		d.seq, err = sim.RunE(workload.Machine(workload.Sequential), seqBuilt.Program)
	})
	if err != nil {
		return nil, err
	}
	d.render = tr.timed(parent, "report", "report.BuildRun+WriteRun", req, func() { d.body, err = render(r, built, d.res, d.seq) })
	return d, err
}

// render is the `tlssim -json` document for a resolved run: its program's
// provenance, the run and its sequential reference.
func render(r *service.Resolved, built *workload.Built, res, seq *sim.Result) ([]byte, error) {
	var buf bytes.Buffer
	err := report.WriteRun(&buf, report.BuildRun(report.RunParams{
		Benchmark:  r.Spec.Bench.String(),
		Experiment: r.Exp.String(),
		CPUs:       r.Cfg.CPUs,
		Subthreads: r.Cfg.TLS.SubthreadsPerEpoch,
		Spacing:    r.Cfg.SubthreadSpacing,
		Epochs:     built.Stats.Epochs,
		Coverage:   built.Stats.Coverage,
	}, res, seq))
	return buf.Bytes(), err
}

// verify renders every spec directly on b.nproc goroutines and reports, per
// spec, whether the served body matches the reference bytes. It runs after
// the measured window, so checking never competes with serving. Each spec
// builds afresh, and its programs are dropped after the check.
func verify(b *bench, specs []service.JobSpec, served [][]byte) ([]bool, []*directRun, error) {
	good := make([]bool, len(specs))
	runs := make([]*directRun, len(specs))
	errs := make([]error, len(specs))
	forEach(b.nproc, len(specs), func(i int) {
		runs[i], errs[i] = direct(nil, spanRef{}, "", workload.NewBuilder(), specs[i], false)
		good[i] = errs[i] == nil && bytes.Equal(runs[i].body, served[i])
	})
	return good, runs, errors.Join(errs...)
}

// ledger totals the simulated statistics of a fixed set of runs. They are
// exact and must repeat from run to run for one seed: a change that only
// makes the simulator faster leaves every one of them unchanged.
func ledger(results []*sim.Result) map[string]uint64 {
	l := map[string]uint64{}
	for _, r := range results {
		l["cycles"] += r.Cycles
		l["violations"] += r.TLS.PrimaryViolations + r.TLS.SecondaryViolations
		l["rewound_instrs"] += r.RewoundInstrs
		l["l2_misses"] += r.L2Misses
	}
	return l
}

// results lists both simulations of each direct run.
func results(runs []*directRun) []*sim.Result {
	var out []*sim.Result
	for _, d := range runs {
		out = append(out, d.res, d.seq)
	}
	return out
}

// job is one closed-loop submission and its reply.
type job struct {
	lat time.Duration
	rep reply
}

// closedLoop sends every spec from b.nproc clients, each waiting for its
// reply before sending the next. It returns the replies in spec order and
// the wall time until the last one arrived.
func closedLoop(b *bench, c *http.Client, url string, parent spanRef, specs []service.JobSpec) ([]job, time.Duration) {
	jobs := make([]job, len(specs))
	start := time.Now()
	forEach(b.nproc, len(specs), func(i int) {
		body := mustJSON(specs[i])
		s := b.tr.begin(parent, "service", "POST /v1/jobs?wait=1", "job-"+itoa(i))
		t := time.Now()
		jobs[i].rep = post(c, url, body)
		jobs[i].lat = time.Since(t)
		s.end()
	})
	return jobs, time.Since(start)
}

// coldMix is the cold workload's round robin. NEW ORDER and STOCK LEVEL
// appear twice so that the median job sits inside one benchmark's latency
// cluster instead of on the gap between two.
var coldMix = []string{"NEW ORDER", "STOCK LEVEL", "PAYMENT", "ORDER STATUS", "NEW ORDER", "STOCK LEVEL"}

// coldSpec is the cold workload's i-th job: every job gets an input seed of
// its own, so no two share a digest, a program or a snapshot.
func coldSpec(seed int64, i int) service.JobSpec {
	return jobSpec(coldMix[i%len(coldMix)], seed*1_000_003+int64(i))
}

const (
	coldMinJobs = 100 // p90 keeps at least 10 samples beyond it
	coldLedger  = 24  // leading jobs whose simulated statistics form the ledger
	coldBatch   = 12  // jobs per fresh server
)

// runCold is the capacity-planning workload: nproc closed-loop clients POST
// distinct jobs to a fresh server, so every job pays for two builds, two
// simulations, a snapshot capture, render and a CAS publish.
func runCold(b *bench) (*outcome, error) {
	_, setup, err := buildBinary(b, "./cmd/tlsd", 3)
	if err != nil {
		return nil, err
	}
	c := newClient(b.nproc)
	defer c.CloseIdleConnections()

	// The server keeps every program it builds, so a long closed loop on
	// one server grows without bound; batches of coldBatch jobs each get a
	// fresh server and store, and only the closed loops are timed. Each
	// batch starts from a collected heap, so the process's peak RSS is the
	// largest batch's.
	var jobs []job
	var wall time.Duration
	builds := 0
	for len(jobs) < coldMinJobs || wall < b.window {
		if wall >= 6*b.window {
			return nil, fmt.Errorf("cold: %d jobs in %v, need %d", len(jobs), wall, coldMinJobs)
		}
		dir := filepath.Join(b.tmp, "cold-cas")
		t := time.Now()
		srv, err := startServer(b, dir)
		if err != nil {
			return nil, err
		}
		if len(jobs) == 0 {
			setup += time.Since(t).Seconds()
		}
		debug.FreeOSMemory()
		specs := make([]service.JobSpec, coldBatch)
		for i := range specs {
			specs[i] = coldSpec(b.seed, len(jobs)+i)
		}
		batch, w := closedLoop(b, c, srv.url, spanRef{}, specs)
		builds += srv.svc.BuildStats().Builds
		if err := srv.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		jobs, wall = append(jobs, batch...), wall+w
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	specs := make([]service.JobSpec, len(jobs))
	served := make([][]byte, len(jobs))
	lat := make([]float64, len(jobs))
	for i, j := range jobs {
		specs[i], served[i], lat[i] = coldSpec(b.seed, i), j.rep.body, ms(j.lat)
	}
	good, runs, err := verify(b, specs, served)
	if err != nil {
		return nil, err
	}
	okJobs := 0
	for i, j := range jobs {
		o.attempted++
		if !j.rep.ok() || !good[i] {
			o.failed++
			lat[i] = inf
			continue
		}
		okJobs++
	}
	o.set("setup_s", setup, "s")
	o.set("peak_rss_mb", rss, "MB")
	o.set("ops_per_s", float64(okJobs)/wall.Seconds(), "1/s")
	mcycles := 0.0
	for _, r := range results(runs) {
		mcycles += float64(r.Cycles) / 1e6
	}
	o.set("sim_mcycles_per_s", mcycles/wall.Seconds(), "Mcycles/s")
	o.set("p50_ms", median(lat), "ms")
	o.set("tail_ms", quantile(lat, 0.9), "ms")
	o.builds = builds
	o.ledger = ledger(results(runs[:coldLedger]))
	o.details["cold"] = map[string]any{
		"jobs": len(jobs), "batch": coldBatch, "wall_s": wall.Seconds(), "tail": "p90",
		"ledger_jobs": coldLedger, "ledger": o.ledger,
	}
	return o, nil
}
