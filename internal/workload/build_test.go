package workload

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"subthreads/internal/tpcc"
)

// coldSpec is the shape of a cold tlsd job's build: 3 measured
// transactions after 1 warm-up.
func coldSpec(b tpcc.Benchmark) Spec {
	s := DefaultSpec(b)
	s.Txns = 3
	s.Warmup = 1
	return s
}

// builtSink keeps BenchmarkBuild's result live.
var builtSink *Built

// BenchmarkBuild times one uncached Build per iteration for each benchmark
// a cold job mixes, in both software modes; run it with -benchmem to see
// the recording's allocation cost.
func BenchmarkBuild(b *testing.B) {
	for _, bench := range []tpcc.Benchmark{tpcc.NewOrder, tpcc.StockLevel, tpcc.Payment, tpcc.OrderStatus} {
		for _, sequential := range []bool{false, true} {
			mode := "TLS"
			if sequential {
				mode = "SEQUENTIAL"
			}
			spec := coldSpec(bench)
			b.Run(bench.String()+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					builtSink = Build(spec, sequential)
				}
			})
		}
	}
}

// buildBytes reports the bytes one Build of spec allocates, measured with
// an empty recorder pool (two collections clear a sync.Pool), so the figure
// includes growing the scratch buffer from nothing.
func buildBytes(spec Spec, sequential bool) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Build(spec, sequential)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// buildBudget caps the bytes one cold-pool Build of NEW ORDER (TLS, txns
// 3, warmup 1) allocates: 13.3 MB measured (go1.24, linux/amd64, with and
// without -race) plus 10%. Budgets only ratchet down.
const buildBudget = 14 << 20

func TestBuildAllocBudget(t *testing.T) {
	if got := buildBytes(coldSpec(tpcc.NewOrder), false); got > buildBudget {
		t.Fatalf("Build(NEW ORDER TLS, txns 3, warmup 1) allocated %d bytes, budget %d", got, buildBudget)
	}
}

// Every recorded trace is copied out of the scratch buffer at exact size:
// a Built that stays cached holds no growth slack.
func TestBuiltTracesExactSize(t *testing.T) {
	for _, bench := range []tpcc.Benchmark{tpcc.NewOrder, tpcc.StockLevel} {
		for _, sequential := range []bool{false, true} {
			spec := coldSpec(bench)
			spec.Txns = 2
			for i, u := range Build(spec, sequential).Program.Units {
				if ev := u.Trace.Events(); len(ev) != cap(ev) {
					t.Fatalf("%v sequential=%v unit %d: len %d, cap %d", bench, sequential, i, len(ev), cap(ev))
				}
			}
		}
	}
}

// Concurrent builds draw their scratch buffers from one pool; each must
// still encode to the bytes of the same build run alone (run with -race).
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	specs := []Spec{tinySpec(tpcc.NewOrder), tinySpec(tpcc.StockLevel), tinySpec(tpcc.Payment), tinySpec(tpcc.DeliveryOuter)}
	want := make([][]byte, len(specs))
	for i, s := range specs {
		want[i] = EncodeBuilt(Build(s, i%2 == 1))
	}
	got := make([][]byte, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			got[i] = EncodeBuilt(Build(s, i%2 == 1))
		}(i, s)
	}
	wg.Wait()
	for i := range specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%v: concurrent build differs from the serial one", specs[i].Bench)
		}
	}
}
