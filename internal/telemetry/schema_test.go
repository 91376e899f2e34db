package telemetry

import (
	"reflect"
	"testing"
)

func TestMetricsSchemaNormalizes(t *testing.T) {
	jsonDoc := []byte(`{"a":1,"nodes":[{"url":"x","b":{"c":2}},{"url":"y"}],"h":{"buckets":[]}}`)
	prom := []byte(`# HELP m_total M.
# TYPE m_total counter
m_total{node="http://127.0.0.1:41234",kind="a \"q\", b"} 3
m_total{node="http://127.0.0.1:41235",kind="a \"q\", b"} 4
lat_bucket{stage="sim",le="7"} 1
lat_bucket{stage="sim",le="+Inf"} 1
x_build_info{go="go1.24.0",version="(devel)"} 1
up 1
`)
	got, err := MetricsSchema(jsonDoc, prom)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"# HELP m_total M.",
		"# TYPE m_total counter",
		"json a",
		"json h",
		"json h.buckets",
		"json nodes",
		"json nodes[].b",
		"json nodes[].b.c",
		"json nodes[].url",
		`lat_bucket{le="*",stage="sim"}`,
		`m_total{kind="a \"q\", b",node="*"}`,
		"up",
		`x_build_info{go="*",version="*"}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schema:\n%q\nwant:\n%q", got, want)
	}
}
