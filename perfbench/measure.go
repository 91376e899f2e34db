package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// inf stands in for the latency of a failed operation: a failure counts as
// missing every latency limit.
var inf = math.Inf(1)

// forEach calls fn(0) .. fn(n-1) from the given number of goroutines, each
// taking the next index when it finishes one, and returns once all have.
func forEach(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads this process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// allocs reports the heap allocation count and bytes so far; deltas around
// a call give its allocation cost. Call only while nothing else allocates.
func allocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// buildBinary builds one of the repository's commands into the run's
// scratch directory, reps times into fresh paths so each build links, and
// returns the last binary with the median build time. The Go build cache
// is warm after the first invocation in a checkout, so this measures what a
// user waits for after editing nothing: dependency checks and the link.
func buildBinary(b *bench, pkg string, reps int) (string, float64, error) {
	var times []float64
	var bin string
	for i := 0; i < reps; i++ {
		bin = filepath.Join(b.tmp, filepath.Base(pkg)+"-"+itoa(i))
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = b.root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return "", 0, fmt.Errorf("go build %s: %v: %s", pkg, err, stderr.String())
		}
		times = append(times, time.Since(start).Seconds())
	}
	return bin, median(times), nil
}

// tracer keeps the traced run's spans in memory until the run ends. The nil
// tracer is valid and records nothing, so untraced code paths call the same
// functions.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call at a layer boundary. Parent is the index+1 of the
// enclosing span (0 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names an open span; the zero value is "no span".
type spanRef struct {
	t  *tracer
	id int // index+1 into t.spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (the zero spanRef for a root).
func (t *tracer) begin(parent spanRef, layer, name, req string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent.id, Req: req, Start: now})
	return spanRef{t: t, id: len(t.spans)}
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(parent spanRef, layer, name, req string, fn func()) time.Duration {
	s := t.begin(parent, layer, name, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	s.end()
	return d
}

// selfTimes sums each layer's self time: a span's duration minus the part of
// it that its children cover (children that overlap are merged first).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		covered := int64(0)
		iv := children[i+1]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	return len(t.spans), os.WriteFile(path, data, 0o644)
}
