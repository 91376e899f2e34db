package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/chaos"
	"subthreads/internal/telemetry"
)

func openTestStore(t *testing.T, dir string) *cas.Store {
	t.Helper()
	s, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatalf("cas.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// Done implies durable: once a job reports done, a process opening the
// store afresh finds both its result body and its prefix checkpoint, and a
// body served from a sibling's cache is on local disk before any submitter
// sees its job done. Every disk operation is stalled 100ms — under the
// breaker's 250ms slow-call trip — so a publish racing the done transition
// would lose the race.
func TestDoneImpliesDurable(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("NEW ORDER")
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Store:   openTestStore(t, dir),
		Chaos:   chaos.New(chaos.Config{Seed: 1, SlowEvery: 1, SlowMS: 100}),
	})
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (%+v)", final.State, final.Failure)
	}

	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	fresh := openTestStore(t, dir)
	if _, ok := fresh.Get(casResultNS, final.Digest); !ok {
		t.Error("job is done but its result body is not in the store")
	}
	if _, ok := fresh.Get(casSnapNS, snapshotKey(r.Spec, r.Cfg)); !ok {
		t.Error("job is done but its prefix checkpoint is not in the store")
	}

	// Remote leg: a body fetched from a sibling replica is published to the
	// local store before its finished job is installed, so a concurrent
	// submitter that is served the digest as done finds it on disk.
	rdir := t.TempDir()
	rspec := tinySpec("PAYMENT")
	sibling := []byte(`{"served_by":"sibling"}`)
	fetched := make(chan struct{})
	var once sync.Once
	rs, _ := newTestServer(t, Options{
		Workers: 1,
		Store:   openTestStore(t, rdir),
		Chaos:   chaos.New(chaos.Config{Seed: 1, SlowEvery: 1, SlowMS: 100}),
		RemoteFetch: func(context.Context, string) ([]byte, string, bool) {
			once.Do(func() { close(fetched) })
			return sibling, "sibling", true
		},
	})
	first := make(chan error, 1)
	go func() {
		_, _, err := rs.Submit(rspec)
		first <- err
	}()
	<-fetched
	rr, err := rspec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	// Wait for the digest to be installed, then submit it: the second
	// submitter is a memory hit on a done job.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		rs.mu.Lock()
		installed := rs.byDigest[rr.Digest] != nil
		rs.mu.Unlock()
		if installed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("remote-fetched digest never installed")
		}
	}
	j, info, err := rs.SubmitDetailed(rspec, "")
	if err != nil || info.Tier != TierMemory || j.State() != StateDone {
		t.Fatalf("second submitter: tier %q, err %v; want a done memory hit", info.Tier, err)
	}
	if body, ok := openTestStore(t, rdir).Get(casResultNS, rr.Digest); !ok || !bytes.Equal(body, sibling) {
		t.Error("remote-fetched job is done but its body is not in the store")
	}
	if err := <-first; err != nil {
		t.Fatalf("first submitter: %v", err)
	}
}

// The warm-restart contract end to end: a brand-new server over the same
// cache directory — a restarted daemon — serves a previously computed spec
// as a hit, byte-identical to the first life's body and to the tlssim
// rendering, without building or simulating anything.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("NEW ORDER")

	// First life: cold run, result published to the store.
	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp := postJob(t, ts1, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts1, st.ID)
	if final.State != StateDone {
		t.Fatalf("cold job state = %s", final.State)
	}
	_, coldBody := getBody(t, ts1.URL+final.ResultURL)
	if s1.Builds() != 2 {
		t.Fatalf("cold builds = %d, want 2 (TLS + sequential)", s1.Builds())
	}

	// Second life: new server, new memory, same directory. A 200 hit serves
	// the stored result body verbatim as the submission response.
	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp2 := postJob(t, ts2, spec)
	warmBody, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatalf("read warm body: %v", err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm resubmission status = %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(warmBody, coldBody) {
		t.Fatalf("warm body differs from cold body (%d vs %d bytes)", len(warmBody), len(coldBody))
	}
	if want := renderExpected(t, spec); !bytes.Equal(warmBody, want) {
		t.Fatal("warm body differs from tlssim -json rendering")
	}
	// The whole point: the restarted daemon did no build work at all.
	if s2.Builds() != 0 {
		t.Fatalf("warm builds = %d, want 0", s2.Builds())
	}

	m := s2.MetricsSnapshot()
	if m.CacheDiskHits != 1 {
		t.Fatalf("cache_disk_hits = %d, want 1", m.CacheDiskHits)
	}
	if m.DiskHitLatencyMicros.Count != 1 {
		t.Fatalf("disk_hit_latency count = %d, want 1", m.DiskHitLatencyMicros.Count)
	}
	if m.CAS == nil || m.CAS.Hits == 0 {
		t.Fatalf("cas stats = %+v, want at least one hit", m.CAS)
	}

	// Third submission in the second life is a plain memory hit.
	resp3 := postJob(t, ts2, spec)
	resp3.Body.Close()
	if m := s2.MetricsSnapshot(); m.CacheHits != 1 || m.CacheDiskHits != 1 {
		t.Fatalf("after resubmit: hits=%d disk=%d, want 1/1", m.CacheHits, m.CacheDiskHits)
	}
}

// A restarted daemon whose store has only the built programs (result entries
// evicted or absent) still skips the build stage: the builder's disk tier
// warms it. This pins the two-namespace split working independently.
func TestWarmRestartRebuildsFromBuiltNamespace(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("STOCK LEVEL")

	_, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp := postJob(t, ts1, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts1, st.ID)

	// Drop the result entry, keep the built programs.
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	store2 := openTestStore(t, dir)
	store2.Quarantine(casResultNS, r.Digest, nil)

	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: store2})
	resp2 := postJob(t, ts2, spec)
	st2 := decodeStatus(t, resp2.Body)
	resp2.Body.Close()
	final := waitDone(t, ts2, st2.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s", final.State)
	}
	// Simulated again (no stored result) but built nothing: both programs
	// came from the store's built namespace.
	if s2.Builds() != 0 {
		t.Fatalf("builds = %d, want 0 (programs from disk)", s2.Builds())
	}
	if st := s2.BuildStats(); st.DiskHits != 2 {
		t.Fatalf("builder stats = %+v, want 2 disk hits", st)
	}
	_, body := getBody(t, ts2.URL+final.ResultURL)
	if want := renderExpected(t, spec); !bytes.Equal(body, want) {
		t.Fatal("disk-built body differs from tlssim -json rendering")
	}
}

// The cas metric families must pass the exposition linter and carry the
// tier's counters once the store has seen traffic.
func TestPromExposesCASFamilies(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("NEW ORDER")

	_, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp := postJob(t, ts1, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts1, st.ID)

	// Restarted daemon: the resubmission is a cas hit.
	_, ts2 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp2 := postJob(t, ts2, spec)
	resp2.Body.Close()

	req, _ := http.NewRequest("GET", ts2.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err := telemetry.LintProm(body); err != nil {
		t.Fatalf("store-enabled exposition does not lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"tlsd_cache_disk_hits_total 1",
		"tlsd_cache_disk_hit_latency_microseconds_count 1",
		"tlsd_cas_hit_total 1",
		"tlsd_cas_miss_total",
		"tlsd_cas_eviction_total 0",
		"tlsd_cas_corrupt_total 0",
		"tlsd_cas_load_latency_microseconds_count 1",
		"tlsd_cas_store_latency_microseconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// Without a store every path must behave exactly as before; this is the
// regression guard for the nil tier.
func TestNoStoreUnchangedBehavior(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	spec := tinySpec("NEW ORDER")
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts, st.ID)
	m := s.MetricsSnapshot()
	if m.CAS != nil {
		t.Fatalf("cas stats present without a store: %+v", m.CAS)
	}
	if m.CacheDiskHits != 0 {
		t.Fatalf("disk hits without a store: %d", m.CacheDiskHits)
	}
}
