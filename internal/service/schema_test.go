package service

import (
	"flag"
	"io"
	"net/http"
	"testing"

	"subthreads/internal/chaos"
	"subthreads/internal/telemetry"
)

var updateSchema = flag.Bool("update", false, "rewrite testdata/metrics_schema.golden from the current /metrics")

// TestMetricsSchemaPinned pins the whole /metrics surface — every JSON key
// path and every Prometheus family, help text, type and label set — against
// testdata/metrics_schema.golden. The daemon runs with a store and an armed
// (fault-free) chaos schedule, so the cas, cas_breaker and chaos blocks
// render. A metric added or renamed must update the golden in the same
// change (go test ./internal/service -run TestMetricsSchemaPinned -update).
func TestMetricsSchemaPinned(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Store:   openTestStore(t, t.TempDir()),
		Chaos:   chaos.New(chaos.Config{Seed: 1}),
	})
	resp := postJob(t, ts, tinySpec("NEW ORDER"))
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job state = %s (%+v)", final.State, final.Failure)
	}
	_, jsonDoc := getBody(t, ts.URL+"/metrics")
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err := telemetry.LintProm(prom); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	if err := telemetry.PinSchema("testdata/metrics_schema.golden", jsonDoc, prom, *updateSchema); err != nil {
		t.Error(err)
	}
}
