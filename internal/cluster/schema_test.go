package cluster

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"subthreads/internal/telemetry"
)

var updateSchema = flag.Bool("update", false, "rewrite testdata/router_metrics_schema.golden from the current /metrics")

// TestRouterMetricsSchemaPinned pins the router's whole /metrics surface —
// every JSON key path and every tlsrouter_* family, help text, type and
// label set — against testdata/router_metrics_schema.golden, after one job
// routed through a 2-node fleet. A metric added or renamed must update the
// golden in the same change (go test ./internal/cluster -run
// TestRouterMetricsSchemaPinned -update).
func TestRouterMetricsSchemaPinned(t *testing.T) {
	fleet := newTestFleet(t, 2)
	rt, err := NewRouter(Options{Workers: fleet.urls})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	spec := specOwnedBy(t, rt.Ring(), fleet.urls[0])
	if resp := postVia(t, rts.URL, spec, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("routed submit: HTTP %d: %s", resp.StatusCode, readBody(t, resp))
	} else {
		resp.Body.Close()
	}
	// The relay observes its proxy latency after the last byte reaches the
	// client; wait for it so the histogram's buckets are in the schema.
	for deadline := time.Now().Add(time.Minute); rt.MetricsSnapshot().ProxyLatencyMicros.Count == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("proxied request never observed")
		}
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	jsonDoc := readBody(t, resp)
	req, _ := http.NewRequest("GET", rts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom := readBody(t, resp)
	if err := telemetry.LintProm(prom); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	if err := telemetry.PinSchema("testdata/router_metrics_schema.golden", jsonDoc, prom, *updateSchema); err != nil {
		t.Error(err)
	}
}
