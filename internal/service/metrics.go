package service

import (
	"net/http"
	"strconv"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/chaos"
	"subthreads/internal/telemetry"
	"subthreads/internal/version"
)

// Counters are the daemon's monotonic job and cache counters. The Server
// increments them in place under its lock, and MetricsSnapshot copies them
// whole into Metrics, which embeds them: each field's tags declare its JSON
// key, its tlsd_* Prometheus family and its help text, once.
type Counters struct {
	JobsSubmitted uint64 `json:"jobs_submitted" prom:"jobs_submitted_total" help:"Job submissions admitted or rejected."`
	JobsCompleted uint64 `json:"jobs_completed" prom:"jobs_completed_total" help:"Jobs that finished with a servable result."`
	JobsFailed    uint64 `json:"jobs_failed" prom:"jobs_failed_total" help:"Jobs that ended in a structured failure."`
	JobsRejected  uint64 `json:"jobs_rejected_queue_full" prom:"jobs_rejected_total" help:"Submissions rejected because the queue was full."`
	// Deadline/cancellation outcomes and degraded-mode rejections.
	JobsTimedOut         uint64 `json:"jobs_timed_out" prom:"jobs_timeout_total" help:"Jobs abandoned on their end-to-end deadline."`
	JobsCancelled        uint64 `json:"jobs_cancelled" prom:"jobs_cancelled_total" help:"Jobs abandoned by client disconnect, DELETE, or shutdown drain."`
	JobsRejectedPoisoned uint64 `json:"jobs_rejected_poisoned" prom:"jobs_rejected_poisoned_total" help:"Submissions fast-failed on a quarantined digest."`
	JobsRejectedDeadline uint64 `json:"jobs_rejected_deadline" prom:"jobs_rejected_deadline_total" help:"Submissions rejected as provably unable to meet their deadline."`

	CacheHits       uint64 `json:"cache_hits" prom:"cache_hits_total" help:"Submissions served from the in-memory result cache."`
	CacheDiskHits   uint64 `json:"cache_disk_hits" prom:"cache_disk_hits_total" help:"Submissions served from the persistent result store."`
	CacheRemoteHits uint64 `json:"cache_remote_hits" prom:"cache_remote_hits_total" help:"Submissions served from a sibling replica's cache."`
	CacheMisses     uint64 `json:"cache_misses" prom:"cache_misses_total" help:"Submissions that required a new simulation."`
	DedupedInFlight uint64 `json:"deduped_in_flight" prom:"cache_deduped_total" help:"Submissions attached to an already in-flight duplicate."`
	// Sibling-cache probes answered by this node (GET /v1/cache/{digest})
	// and how many found a stored result.
	CacheProbes    uint64 `json:"cache_probes" prom:"cache_probes_total" help:"Sibling-cache probes answered (GET /v1/cache/{digest})."`
	CacheProbeHits uint64 `json:"cache_probe_hits" prom:"cache_probe_hits_total" help:"Sibling-cache probes that found a stored result."`

	// Checkpoint tier: machine-state snapshots forked from / probed /
	// published / quarantined, and the executed-job fork-vs-replay split.
	SnapshotHits    uint64 `json:"snapshot_hits" prom:"snapshot_hit_total" help:"Jobs forked from a stored machine checkpoint."`
	SnapshotMisses  uint64 `json:"snapshot_misses" prom:"snapshot_miss_total" help:"Checkpoint probes that found no stored snapshot."`
	SnapshotPuts    uint64 `json:"snapshot_puts" prom:"snapshot_put_total" help:"Machine checkpoints published to the persistent store."`
	SnapshotCorrupt uint64 `json:"snapshot_corrupt" prom:"snapshot_corrupt_total" help:"Machine checkpoints quarantined as undecodable or inapplicable."`
	JobsForked      uint64 `json:"jobs_forked" prom:"jobs_forked_total" help:"Executed jobs whose main simulation forked from a checkpoint."`
	JobsReplayed    uint64 `json:"jobs_replayed" prom:"jobs_replayed_total" help:"Executed jobs whose main simulation ran in full."`
}

// bump increments one of s.c under the server lock.
func (s *Server) bump(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// Metrics is the /metrics snapshot: queue pressure, worker occupancy, cache
// effectiveness, job outcomes, and latency distributions (microseconds,
// telemetry histogram schema). It is the single declaration of every tlsd
// metric: encoding/json renders it as the JSON document, and
// telemetry.PromWriter.Struct renders the same fields as tlsd_* families.
type Metrics struct {
	UptimeSeconds   float64 `json:"uptime_seconds" prom:"uptime_seconds" help:"Seconds since the daemon started."`
	Workers         int     `json:"workers" prom:"workers" help:"Simulation worker-pool size."`
	QueueDepth      int     `json:"queue_depth" prom:"queue_depth" help:"Jobs waiting in the admission queue."`
	QueueCapacity   int     `json:"queue_capacity" prom:"queue_capacity" help:"Admission queue capacity."`
	InFlight        int     `json:"in_flight" prom:"jobs_in_flight" help:"Jobs currently simulating."`
	PoisonedDigests int     `json:"poisoned_digests" prom:"poisoned_digests" help:"Digests currently in the poison quarantine window."`
	CacheEntries    int     `json:"cache_entries" prom:"cache_entries" help:"Distinct digests with a live job or stored result."`
	CacheHitRatio   float64 `json:"cache_hit_ratio" prom:"cache_hit_ratio" help:"Fraction of classified submissions served without new work (0 until the first job)."`

	Counters

	ColdLatencyMicros      telemetry.HistogramSnapshot `json:"cold_latency_micros" prom:"job_cold_latency_microseconds" help:"Submit-to-terminal latency of executed jobs."`
	HitLatencyMicros       telemetry.HistogramSnapshot `json:"cache_hit_latency_micros" prom:"cache_hit_latency_microseconds" help:"Lookup latency of memory cache-hit submissions."`
	DiskHitLatencyMicros   telemetry.HistogramSnapshot `json:"disk_hit_latency_micros" prom:"cache_disk_hit_latency_microseconds" help:"Lookup latency of disk-warm hit submissions (includes the store read)."`
	RemoteHitLatencyMicros telemetry.HistogramSnapshot `json:"remote_hit_latency_micros" prom:"cache_remote_hit_latency_microseconds" help:"Lookup latency of sibling-cache hit submissions (includes the network fetch)."`

	// CAS is the persistent store's own view — hits, misses, evictions,
	// quarantined entries, resident set, and disk I/O latencies. nil when
	// the daemon runs without a cache directory.
	CAS *cas.Stats `json:"cas,omitempty" prom:"cas"`
	// Breaker is the disk-tier circuit breaker's state and counters. nil
	// without a persistent store.
	Breaker *BreakerStats `json:"cas_breaker,omitempty" prom:"cas_breaker" help.state:"Disk CAS tier circuit-breaker state (one-hot across the state label)." help.opens_total:"Times the disk CAS tier circuit breaker tripped open." help.short_circuits_total:"Result-tier disk operations skipped while the breaker was open."`
	// Chaos counts the faults the -chaos schedule has delivered. nil when
	// chaos is off.
	Chaos *chaos.Stats `json:"chaos,omitempty" prom:"chaos"`

	// Per-stage breakdown of the cold path, observed once per executed job:
	// queue wait, workload build, simulation, result render, and the
	// result's publish to the persistent store.
	QueueWaitMicros      telemetry.HistogramSnapshot `json:"queue_wait_micros" prom:"job_stage_latency_microseconds" label:"stage=queue" help:"Executed-job latency by pipeline stage (queue wait, workload build, simulation, result render, result publish)."`
	BuildLatencyMicros   telemetry.HistogramSnapshot `json:"build_latency_micros" prom:"job_stage_latency_microseconds" label:"stage=build"`
	SimLatencyMicros     telemetry.HistogramSnapshot `json:"sim_latency_micros" prom:"job_stage_latency_microseconds" label:"stage=sim"`
	RenderLatencyMicros  telemetry.HistogramSnapshot `json:"render_latency_micros" prom:"job_stage_latency_microseconds" label:"stage=render"`
	PublishLatencyMicros telemetry.HistogramSnapshot `json:"publish_latency_micros" prom:"job_stage_latency_microseconds" label:"stage=publish"`
}

// MetricsSnapshot captures the current serving metrics.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Workers:         s.opts.Workers,
		QueueDepth:      len(s.queue),
		QueueCapacity:   s.opts.QueueDepth,
		InFlight:        s.inFlight,
		PoisonedDigests: len(s.poison),
		CacheEntries:    len(s.byDigest),
		Counters:        s.c,

		ColdLatencyMicros:      s.coldMicros.Snapshot(),
		HitLatencyMicros:       s.hitMicros.Snapshot(),
		DiskHitLatencyMicros:   s.diskHitMicros.Snapshot(),
		RemoteHitLatencyMicros: s.remoteHitMicros.Snapshot(),

		QueueWaitMicros:      s.stageMicros[stageQueue].Snapshot(),
		BuildLatencyMicros:   s.stageMicros[stageBuild].Snapshot(),
		SimLatencyMicros:     s.stageMicros[stageSim].Snapshot(),
		RenderLatencyMicros:  s.stageMicros[stageRender].Snapshot(),
		PublishLatencyMicros: s.stageMicros[stagePublish].Snapshot(),
	}
	if s.store != nil {
		st := s.store.Stats()
		m.CAS = &st
		bs := s.breaker.Stats()
		m.Breaker = &bs
	}
	if s.chaos != nil {
		cs := s.chaos.Stats()
		m.Chaos = &cs
	}
	if served := m.CacheHits + m.CacheDiskHits + m.CacheRemoteHits + m.DedupedInFlight + m.CacheMisses; served > 0 {
		m.CacheHitRatio = float64(m.CacheHits+m.CacheDiskHits+m.CacheRemoteHits+m.DedupedInFlight) / float64(served)
	}
	return m
}

// handleMetrics serves the metrics snapshot in the representation the
// client asked for (ServeMetrics). A browser's or curl's */* keeps getting
// the historical JSON document, so existing scrapers and the smoke script
// are unchanged.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := version.Get()
	ServeMetrics(w, r, "tlsd", "daemon", s.MetricsSnapshot(),
		telemetry.PromLabel{Name: "module", Value: v.Module},
		telemetry.PromLabel{Name: "version", Value: v.Version},
		telemetry.PromLabel{Name: "revision", Value: v.Revision},
		telemetry.PromLabel{Name: "modified", Value: strconv.FormatBool(v.Modified)},
		telemetry.PromLabel{Name: "go", Value: v.Go})
}

// ServeMetrics answers a /metrics request with the snapshot m: the
// Prometheus text exposition of its tagged fields under namespace when the
// Accept header asks for it (telemetry.WantsProm), indented JSON otherwise.
// The exposition also carries the conventional always-1
// <namespace>_build_info gauge, labelled with the build identity; binary
// names the process in its help text.
func ServeMetrics(w http.ResponseWriter, r *http.Request, namespace, binary string, m any, build ...telemetry.PromLabel) {
	if !telemetry.WantsProm(r.Header.Get("Accept")) {
		WriteJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	p := telemetry.NewPromWriter(w)
	p.Gauge(namespace+"_build_info", "Build identity of the running "+binary+"; the value is always 1.", 1, build...)
	p.Struct(namespace, m)
	p.Flush()
}
