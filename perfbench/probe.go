package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"subthreads/internal/cache"
	"subthreads/internal/cas"
	"subthreads/internal/cluster"
	"subthreads/internal/db"
	"subthreads/internal/isa"
	"subthreads/internal/service"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
	"subthreads/internal/trace"
	"subthreads/internal/workload"
)

// layers are the program's layers the traced run reports self time for.
var layers = []string{"experiments", "workload", "trace", "sim", "cache", "snapshot", "report", "cas", "service", "cluster"}

// perLayer lists the metrics every traced run prints.
var perLayer = func() []string {
	names := []string{
		"experiments.figure5_s", "experiments.figure6_s",
		"workload.load_ms", "workload.record_ms", "workload.builds",
		"workload.encode_ms", "workload.decode_ms", "workload.built_mb",
		"trace.ns_per_event",
		"sim.tls_ms", "sim.seq_ms", "sim.ns_per_instr", "sim.allocs_per_epoch", "sim.bytes_per_epoch",
		"sim.mcycles", "sim.violations", "sim.rewound_minstrs", "sim.l2_misses",
		"cache.ns_per_access", "cache.allocs_per_access",
		"snapshot.encode_ms", "snapshot.decode_ms", "snapshot.kb", "snapshot.fork_ms", "snapshot.fork_saving",
		"report.render_ms",
		"cas.put_ms", "cas.get_ms", "cas.disk_hits",
		"service.submit_hit_us", "service.http_hop_us", "service.queue_wait_ms", "service.overhead_ms",
		"service.tier_memory", "service.tier_dedup", "service.allocs_per_hit",
		"gen.late_ms", "cluster.hop_us",
		"tracing.overhead_ms", "tracing.spans",
	}
	for _, l := range layers {
		names = append(names, l+".self_ms")
	}
	return names
}()

// runTraced is the per-layer pass. It runs the suite binary once (the
// experiments layer, timed from its own stderr), the named workload's leg
// with and without spans (the tracing overhead, the workload's build count
// and its simulated-statistics ledger), and the layer probe, then reports
// every layer's self time and writes the spans to the build directory.
func runTraced(b *bench, name string) (*outcome, error) {
	o := newOutcome()
	root := b.tr.begin(spanRef{}, "bench", "traced "+name, name)

	bin, _, err := buildBinary(b, "./cmd/experiments", 1)
	if err != nil {
		return nil, err
	}
	suite, err := runExperiments(b, bin, root)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if !suite.ok(suite) {
		o.failed++
		return nil, fmt.Errorf("cmd/experiments failed: exit %d: %s", suite.exitCode, suite.stderr)
	}
	o.set("experiments.figure5_s", suite.figures["figure5"].Seconds(), "s")
	o.set("experiments.figure6_s", suite.figures["figure6"].Seconds(), "s")

	var leg *outcome
	if name == "suite" {
		leg, err = suiteLeg(b, root, suite.wall)
	} else {
		leg, err = coldLeg(b, root)
	}
	if err != nil {
		return nil, err
	}
	p, err := probe(b, root)
	if err != nil {
		return nil, err
	}
	root.end()
	// Where the leg measures a metric the probe also gives (the cold leg's
	// service overhead over its 24 jobs), the leg's number is reported.
	o.add(p)
	o.add(leg)
	o.set("workload.builds", float64(leg.builds), "count")
	o.set("sim.mcycles", float64(leg.ledger["cycles"])/1e6, "Mcycles")
	o.set("sim.violations", float64(leg.ledger["violations"]), "count")
	o.set("sim.rewound_minstrs", float64(leg.ledger["rewound_instrs"])/1e6, "Minstrs")
	o.set("sim.l2_misses", float64(leg.ledger["l2_misses"]), "count")
	o.details["ledger"] = leg.ledger

	self := b.tr.selfTimes()
	for _, l := range layers {
		o.set(l+".self_ms", ms(self[l]), "ms")
	}
	path := filepath.Join(b.build, "traces", fmt.Sprintf("%s-seed%d.json", name, b.seed))
	n, err := b.tr.write(path)
	if err != nil {
		return nil, err
	}
	o.set("tracing.spans", float64(n), "count")
	o.details["spans_file"] = path
	return o, nil
}

// suiteLeg replays the suite's grid in-process with spans and compares its
// wall time with the untraced binary's.
func suiteLeg(b *bench, root spanRef, untraced time.Duration) (*outcome, error) {
	o := newOutcome()
	s := b.tr.begin(root, "bench", "suite replay", "suite")
	start := time.Now()
	res, stats, err := replaySuite(b, s)
	traced := time.Since(start)
	s.end()
	if err != nil {
		return nil, err
	}
	o.attempted += len(res)
	o.builds = stats.Builds
	o.ledger = ledger(res)
	o.set("tracing.overhead_ms", ms(traced-untraced), "ms")
	o.details["suite"] = map[string]any{"binary_s": untraced.Seconds(), "replay_s": traced.Seconds(), "tasks": len(res)}
	return o, nil
}

// coldLeg runs the cold workload's first jobs once over HTTP without spans,
// once over HTTP with spans, and once as direct calls with spans. The
// direct renders check both HTTP passes' bodies and give the ledger; the
// HTTP latency minus the direct pipeline time is the service's overhead.
func coldLeg(b *bench, root spanRef) (*outcome, error) {
	o := newOutcome()
	specs := make([]service.JobSpec, coldLedger)
	for i := range specs {
		specs[i] = coldSpec(b.seed, i)
	}
	pass := func(tr *tracer, dir string) ([]job, time.Duration, int, error) {
		srv, err := startServer(b, filepath.Join(b.tmp, dir))
		if err != nil {
			return nil, 0, 0, err
		}
		c := newClient(b.nproc)
		defer c.CloseIdleConnections()
		tb := *b
		tb.tr = tr
		parent := tr.begin(root, "bench", "cold "+dir, "")
		jobs, wall := closedLoop(&tb, c, srv.url, parent, specs)
		parent.end()
		builds := srv.svc.BuildStats().Builds
		return jobs, wall, builds, srv.stop()
	}
	plain, plainWall, builds, err := pass(nil, "cold-untraced")
	if err != nil {
		return nil, err
	}
	spanned, spannedWall, _, err := pass(b.tr, "cold-traced")
	if err != nil {
		return nil, err
	}
	// The direct pass runs as many jobs at once as the HTTP passes do, so
	// the overhead compares like with like.
	runs := make([]*directRun, len(specs))
	errs := make([]error, len(specs))
	forEach(b.nproc, len(specs), func(i int) {
		req := "job-" + itoa(i)
		s := b.tr.begin(root, "bench", "direct "+specs[i].Benchmark, req)
		runs[i], errs[i] = direct(b.tr, s, req, workload.NewBuilder(), specs[i], false)
		s.end()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var overhead []float64
	for i, d := range runs {
		for _, j := range []job{plain[i], spanned[i]} {
			o.attempted++
			if !j.rep.ok() || !bytes.Equal(j.rep.body, d.body) {
				o.failed++
			}
		}
		overhead = append(overhead, ms(plain[i].lat-(d.build+d.tlsSim+d.seqSim+d.render)))
	}
	o.builds = builds
	o.ledger = ledger(results(runs))
	o.set("tracing.overhead_ms", ms(spannedWall-plainWall), "ms")
	o.set("service.overhead_ms", median(overhead), "ms")
	o.details["cold"] = map[string]any{"jobs": len(specs), "untraced_s": plainWall.Seconds(), "traced_s": spannedWall.Seconds()}
	return o, nil
}

// sample is one open-loop request: its reply and how far behind schedule
// the generator sent it.
type sample struct {
	late time.Duration
	rep  reply
}

// openLoop sends n copies of body at rate from b.nproc clients. Request k is
// due at k/rate after the start whether or not earlier ones have finished.
func openLoop(b *bench, c *http.Client, url string, parent spanRef, rate float64, n int, body []byte) []sample {
	out := make([]sample, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	forEach(b.nproc, n, func(k int) {
		due := start.Add(time.Duration(float64(k) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		s := b.tr.begin(parent, "service", "POST /v1/jobs?wait=1", "gen-"+itoa(k))
		rep := post(c, url, body)
		s.end()
		out[k] = sample{late: sent.Sub(due), rep: rep}
	})
	return out
}

// probeSpecs are the layer probe's inputs: one NEW ORDER and one STOCK
// LEVEL job with seeds of their own.
func probeSpecs(seed int64) []service.JobSpec {
	return []service.JobSpec{
		jobSpec("NEW ORDER", seed*1_000_003+900_000),
		jobSpec("STOCK LEVEL", seed*1_000_003+900_001),
	}
}

// probe times each layer through its public calls on the probe specs, with
// a span around every call. Nothing else runs meanwhile, so heap counters
// taken around a call are that call's allocations.
func probe(b *bench, root spanRef) (*outcome, error) {
	o := newOutcome()
	tr := b.tr
	specs := probeSpecs(b.seed)
	var load, record, enc, dec, builtMB []float64
	var builts []*workload.Built
	for i, js := range specs {
		r, err := js.Resolve()
		if err != nil {
			return nil, err
		}
		req := "probe-" + itoa(i)
		for _, seq := range []bool{false, true} {
			cfg := db.DefaultConfig()
			cfg.Opt = db.OptLevel(r.Spec.OptLevel)
			if seq {
				cfg.Opt = db.OptNone()
			}
			l := tr.timed(root, "workload", "tpcc.Load", req, func() { tpcc.Load(db.NewEnv(cfg), r.Spec.Scale, r.Spec.Seed) })
			var built *workload.Built
			bt := tr.timed(root, "workload", "workload.Build", req, func() { built = workload.Build(r.Spec, seq) })
			var data []byte
			e := tr.timed(root, "workload", "workload.EncodeBuilt", req, func() { data = workload.EncodeBuilt(built) })
			d := tr.timed(root, "workload", "workload.DecodeBuilt", req, func() { _, err = workload.DecodeBuilt(data) })
			if err != nil {
				return nil, err
			}
			load, record = append(load, ms(l)), append(record, ms(bt-l))
			enc, dec, builtMB = append(enc, ms(e)), append(dec, ms(d)), append(builtMB, float64(len(data))/1e6)
			builts = append(builts, built)
		}
	}
	o.set("workload.load_ms", median(load), "ms")
	o.set("workload.record_ms", median(record), "ms")
	o.set("workload.encode_ms", median(enc), "ms")
	o.set("workload.decode_ms", median(dec), "ms")
	o.set("workload.built_mb", median(builtMB), "MB")

	// trace: every unit of every probe program through a cursor, in the
	// issue-width steps the cores consume it in.
	width := uint32(sim.DefaultConfig().CPU.IssueWidth)
	events := 0
	d := tr.timed(root, "trace", "Cursor.Next", "probe", func() {
		for _, bt := range builts {
			for _, u := range bt.Program.Units {
				c := trace.NewCursor(u.Trace)
				for _, ok := c.Next(width); ok; _, ok = c.Next(width) {
					events++
				}
			}
		}
	})
	o.set("trace.ns_per_event", float64(d.Nanoseconds())/float64(events), "ns")

	// cache: the probe programs' load and store lines through an L2-shaped
	// tag store, three passes so the cache warms and the count is large.
	var lines []cache.Entry
	for _, bt := range builts {
		for _, u := range bt.Program.Units {
			for _, ev := range u.Trace.Events() {
				if ev.Kind == isa.Load || ev.Kind == isa.Store {
					lines = append(lines, cache.Entry{Line: ev.Addr.Line(), Ver: cache.VerCommitted})
				}
			}
		}
	}
	tcfg := sim.DefaultConfig().TLS
	l2 := cache.New(cache.Config{Name: "L2", Sets: tcfg.L2Sets, Ways: tcfg.L2Ways})
	a0, _ := allocs()
	d = tr.timed(root, "cache", "Cache.Lookup/Insert", "probe", func() {
		for pass := 0; pass < 3; pass++ {
			for _, e := range lines {
				if !l2.Lookup(e) {
					l2.Insert(e, nil)
				}
			}
		}
	})
	a1, _ := allocs()
	accesses := float64(3 * len(lines))
	o.set("cache.ns_per_access", float64(d.Nanoseconds())/accesses, "ns")
	o.set("cache.allocs_per_access", float64(a1-a0)/accesses, "count")

	// sim and report: each probe spec rendered directly, with heap counters
	// around the main simulation.
	var tlsMS, seqMS, nsPerInstr, renderMS []float64
	var epochs, mallocs, mbytes uint64
	var runs []*directRun
	builder := workload.NewBuilder()
	for i, js := range specs {
		req := "probe-" + itoa(i)
		dr, err := direct(tr, root, req, builder, js, true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, dr)
		tlsMS, seqMS = append(tlsMS, ms(dr.tlsSim)), append(seqMS, ms(dr.seqSim))
		nsPerInstr = append(nsPerInstr, float64(dr.tlsSim.Nanoseconds())/float64(dr.res.CommittedInstrs))
		epochs += uint64(dr.res.EpochCount)
		mallocs += dr.tlsAllocs
		mbytes += dr.tlsAllocBytes
		r, _ := js.Resolve()
		built := builder.Build(r.Spec, false)
		for rep := 0; rep < 20; rep++ {
			d := tr.timed(root, "report", "report.BuildRun+WriteRun", req, func() { _, err = render(r, built, dr.res, dr.seq) })
			if err != nil {
				return nil, err
			}
			renderMS = append(renderMS, ms(d))
		}
	}
	o.set("sim.tls_ms", median(tlsMS), "ms")
	o.set("sim.seq_ms", median(seqMS), "ms")
	o.set("sim.ns_per_instr", median(nsPerInstr), "ns")
	o.set("sim.allocs_per_epoch", float64(mallocs)/float64(epochs), "count")
	o.set("sim.bytes_per_epoch", float64(mbytes)/float64(epochs), "B")
	o.set("report.render_ms", median(renderMS), "ms")

	if err := probeSnapshot(b, root, o, builder); err != nil {
		return nil, err
	}
	if err := probeCAS(b, root, o, builts, runs); err != nil {
		return nil, err
	}
	if err := probeService(b, root, o, runs); err != nil {
		return nil, err
	}
	return o, nil
}

// probeSnapshot captures each probe spec's prefix snapshot, round-trips it
// through the codec, and compares forking a Figure 6 variant from it with
// running the variant in full.
func probeSnapshot(b *bench, root spanRef, o *outcome, builder *workload.Builder) error {
	tr := b.tr
	var encMS, decMS, kb, forkMS, saving []float64
	for i, js := range probeSpecs(b.seed) {
		r, err := js.Resolve()
		if err != nil {
			return err
		}
		req := "probe-" + itoa(i)
		prog := builder.Build(r.Spec, false).Program
		var snap *sim.Snapshot
		cfg := r.Cfg
		cfg.SnapshotAtPrefix = true
		cfg.SnapshotSink = func(s *sim.Snapshot) {
			if s.Forkable {
				snap = s
			}
		}
		tr.timed(root, "sim", "sim.RunE+capture", req, func() { _, err = sim.RunE(cfg, prog) })
		if err != nil {
			return err
		}
		if snap == nil {
			return fmt.Errorf("probe: %s captured no forkable snapshot", js.Benchmark)
		}
		var data []byte
		e := tr.timed(root, "snapshot", "Snapshot.Encode", req, func() { data = snap.Encode() })
		var decoded *sim.Snapshot
		d := tr.timed(root, "snapshot", "sim.DecodeSnapshot", req, func() { decoded, err = sim.DecodeSnapshot(data) })
		if err != nil {
			return err
		}
		variant := r.Cfg
		variant.TLS.SubthreadsPerEpoch, variant.SubthreadSpacing = 4, 2500
		var forked, full *sim.Result
		f := tr.timed(root, "snapshot", "sim.ResumeE", req, func() { forked, err = sim.ResumeE(variant, prog, decoded) })
		if err != nil {
			return err
		}
		u := tr.timed(root, "sim", "sim.RunE", req, func() { full, err = sim.RunE(variant, prog) })
		if err != nil {
			return err
		}
		o.attempted++
		if forked.Cycles != full.Cycles || forked.CommittedInstrs != full.CommittedInstrs {
			o.failed++
		}
		encMS, decMS, kb = append(encMS, ms(e)), append(decMS, ms(d)), append(kb, float64(len(data))/1e3)
		forkMS, saving = append(forkMS, ms(f)), append(saving, 1-ms(f)/ms(u))
	}
	o.set("snapshot.encode_ms", median(encMS), "ms")
	o.set("snapshot.decode_ms", median(decMS), "ms")
	o.set("snapshot.kb", median(kb), "KB")
	o.set("snapshot.fork_ms", median(forkMS), "ms")
	o.set("snapshot.fork_saving", median(saving), "ratio")
	return nil
}

// probeCAS puts the probe programs and result bodies into a fresh store,
// reopens it, and reads them back from disk.
func probeCAS(b *bench, root spanRef, o *outcome, builts []*workload.Built, runs []*directRun) error {
	dir := filepath.Join(b.tmp, "probe-cas")
	var payloads [][]byte
	for _, bt := range builts {
		payloads = append(payloads, workload.EncodeBuilt(bt))
	}
	for _, d := range runs {
		payloads = append(payloads, d.body)
	}
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		return err
	}
	var put, get []float64
	for i, p := range payloads {
		d := b.tr.timed(root, "cas", "Store.Put", "probe", func() { store.Put("probe", fmt.Sprintf("k%02d", i), p) })
		put = append(put, ms(d))
	}
	if err := store.Close(); err != nil {
		return err
	}
	if store, err = cas.Open(dir, cas.Options{}); err != nil {
		return err
	}
	defer store.Close()
	for i, p := range payloads {
		var got []byte
		var ok bool
		d := b.tr.timed(root, "cas", "Store.Get", "probe", func() { got, ok = store.Get("probe", fmt.Sprintf("k%02d", i)) })
		o.attempted++
		if !ok || !bytes.Equal(got, p) {
			o.failed++
		}
		get = append(get, ms(d))
	}
	o.set("cas.put_ms", median(put), "ms")
	o.set("cas.get_ms", median(get), "ms")
	return nil
}

const probeHits = 2000

// probeService measures the serving layers on a server of its own: cold
// HTTP jobs against the direct pipeline, queue wait under a burst, a
// deduplicated submission, in-process and HTTP cache hits, disk hits after
// a restart, the open-loop generator's lateness, and the router hop.
func probeService(b *bench, root spanRef, o *outcome, runs []*directRun) error {
	tr := b.tr
	dir := filepath.Join(b.tmp, "probe-service")
	srv, err := startServer(b, dir)
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	c := newClient(b.nproc)
	defer c.CloseIdleConnections()
	specs := probeSpecs(b.seed)
	tiers := map[string]int{}
	check := func(rep reply, want []byte) {
		o.attempted++
		tiers[rep.tier]++
		if !rep.ok() || (want != nil && !bytes.Equal(rep.body, want)) {
			o.failed++
		}
	}

	// Cold jobs over HTTP, one at a time, against the direct pipeline.
	var overhead []float64
	for i, js := range specs {
		var rep reply
		d := tr.timed(root, "service", "POST /v1/jobs?wait=1", "probe-"+itoa(i), func() { rep = post(c, srv.url, mustJSON(js)) })
		check(rep, runs[i].body)
		dr := runs[i]
		overhead = append(overhead, ms(d-(dr.build+dr.tlsSim+dr.seqSim+dr.render)))
	}

	// A burst of Figure 6 variants, more than the workers, so jobs queue;
	// one is submitted twice, and the second attaches to the first.
	var burst []*service.Job
	for k := 0; k < 2*b.nproc; k++ {
		v := specs[0]
		v.Subthreads, v.Spacing = 2+2*(k%2), []uint64{1000, 2500, 10000, 50000}[k%4]
		j, _, err := srv.svc.Submit(v)
		if err != nil {
			return err
		}
		burst = append(burst, j)
		if k == 0 {
			rep := post(c, srv.url, mustJSON(v))
			check(rep, nil)
		}
	}
	for _, j := range burst {
		<-j.Done()
		o.attempted++
		if j.State() != service.StateDone {
			o.failed++
		}
	}
	m := srv.svc.MetricsSnapshot()

	// In-process and HTTP hits of a cached digest.
	body := mustJSON(specs[0])
	submit, viaHTTP := make([]float64, 0, probeHits), make([]float64, 0, probeHits)
	a0, _ := allocs()
	s := tr.begin(root, "service", "Server.Submit hits", "probe-hits")
	for k := 0; k < probeHits; k++ {
		t := time.Now()
		_, hit, err := srv.svc.Submit(specs[0])
		submit = append(submit, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil || !hit {
			return fmt.Errorf("probe: cached digest missed (err %v)", err)
		}
	}
	s.end()
	a1, _ := allocs()
	s = tr.begin(root, "service", "POST hits", "probe-hits")
	for k := 0; k < probeHits; k++ {
		t := time.Now()
		rep := post(c, srv.url, body)
		viaHTTP = append(viaHTTP, float64(time.Since(t).Nanoseconds())/1e3)
		check(rep, runs[0].body)
	}
	s.end()

	// Restart over the same store: the first request per digest is a disk
	// hit.
	if err := srv.stop(); err != nil {
		srv = nil
		return err
	}
	if srv, err = startServer(b, dir); err != nil {
		return err
	}
	for i, js := range specs {
		var rep reply
		tr.timed(root, "service", "POST /v1/jobs?wait=1", "probe-disk-"+itoa(i), func() { rep = post(c, srv.url, mustJSON(js)) })
		check(rep, runs[i].body)
	}

	// Two seconds of open-loop hits at 1000 requests per second.
	gs := tr.begin(root, "bench", "open loop", "probe-gen")
	samples := openLoop(b, c, srv.url, gs, 1000, probeHits, body)
	gs.end()
	var late []float64
	for _, sm := range samples {
		check(sm.rep, runs[0].body)
		late = append(late, ms(sm.late))
	}

	hop, err := probeRouter(b, root, c, srv.url, body, runs[0].body, o)
	if err != nil {
		return err
	}

	o.set("service.submit_hit_us", median(submit), "us")
	o.set("service.http_hop_us", median(viaHTTP)-median(submit), "us")
	o.set("service.allocs_per_hit", float64(a1-a0)/probeHits, "count")
	o.set("service.queue_wait_ms", m.QueueWaitMicros.Mean/1000, "ms")
	o.set("service.overhead_ms", median(overhead), "ms")
	o.set("service.tier_memory", float64(tiers[service.TierMemory]), "count")
	o.set("service.tier_dedup", float64(tiers["dedup"]), "count")
	o.set("cas.disk_hits", float64(tiers[service.TierDisk]), "count")
	o.set("gen.late_ms", quantile(late, 0.99), "ms")
	o.set("cluster.hop_us", hop, "us")
	o.details["probe_tiers"] = tiers
	return nil
}

// probeRouter fronts the worker with an in-process cluster.Router and sends
// the same hits through it and directly, alternating; the hop is the
// difference of the medians. It is the only place the benchmark uses the
// router.
func probeRouter(b *bench, root spanRef, c *http.Client, worker string, body, want []byte, o *outcome) (float64, error) {
	rt, err := cluster.NewRouter(cluster.Options{Workers: []string{worker}})
	if err != nil {
		return 0, err
	}
	rt.Start()
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	routerURL := "http://" + ln.Addr().String()
	var routed, plain []float64
	for k := 0; k < probeHits/2; k++ {
		for _, u := range []string{routerURL, worker} {
			var rep reply
			layer := "service"
			if u == routerURL {
				layer = "cluster"
			}
			d := b.tr.timed(root, layer, "POST /v1/jobs?wait=1", "probe-router", func() { rep = post(c, u, body) })
			o.attempted++
			if !rep.ok() || !bytes.Equal(rep.body, want) {
				o.failed++
			}
			if u == routerURL {
				routed = append(routed, float64(d.Nanoseconds())/1e3)
			} else {
				plain = append(plain, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	err = hs.Close()
	if serveErr := <-done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return median(routed) - median(plain), err
}
