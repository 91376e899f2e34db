package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"subthreads/internal/isa"
	"subthreads/internal/report"
	"subthreads/internal/sim"
	"subthreads/internal/snapbin"
	"subthreads/internal/tpcc"
	"subthreads/internal/trace"
)

func smallSpec() Spec {
	s := DefaultSpec(tpcc.NewOrder)
	s.Txns = 3
	s.Warmup = 1
	return s
}

// renderRun produces the exact document tlssim -json and tlsd serve for a
// built program: simulate the experiment machine and the sequential
// reference over the given binaries, then render through internal/report.
func renderRun(t *testing.T, spec Spec, tls, seq *Built) []byte {
	t.Helper()
	cfg := Machine(Baseline)
	res := sim.Run(cfg, tls.Program)
	seqRes := sim.Run(Machine(Sequential), seq.Program)
	run := report.BuildRun(report.RunParams{
		Benchmark:  spec.Bench.String(),
		Experiment: Baseline.String(),
		CPUs:       cfg.CPUs,
		Subthreads: cfg.TLS.SubthreadsPerEpoch,
		Spacing:    cfg.SubthreadSpacing,
		Epochs:     tls.Stats.Epochs,
		Coverage:   tls.Stats.Coverage,
	}, res, seqRes)
	var buf bytes.Buffer
	if err := report.WriteRun(&buf, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	return buf.Bytes()
}

// The cache-correctness pin: a Built that goes through the binary codec must
// be indistinguishable from a fresh build all the way through rendering —
// the served JSON bytes are identical.
func TestBuiltRoundTripByteIdentical(t *testing.T) {
	spec := smallSpec()
	freshTLS := Build(spec, false)
	freshSeq := Build(spec, true)

	decode := func(b *Built) *Built {
		t.Helper()
		enc := EncodeBuilt(b)
		dec, err := DecodeBuilt(enc)
		if err != nil {
			t.Fatalf("DecodeBuilt: %v", err)
		}
		return dec
	}
	decTLS, decSeq := decode(freshTLS), decode(freshSeq)

	// Field-level identity first, so a mismatch names the broken field
	// instead of diffing two JSON documents.
	for _, c := range []struct {
		name       string
		fresh, dec *Built
	}{{"tls", freshTLS, decTLS}, {"seq", freshSeq, decSeq}} {
		if c.dec.Stats != c.fresh.Stats {
			t.Errorf("%s stats = %+v, want %+v", c.name, c.dec.Stats, c.fresh.Stats)
		}
		if c.dec.Digest != c.fresh.Digest {
			t.Errorf("%s digest = %x, want %x", c.name, c.dec.Digest, c.fresh.Digest)
		}
		if !reflect.DeepEqual(c.dec.Outputs, c.fresh.Outputs) {
			t.Errorf("%s outputs mismatch", c.name)
		}
		if !reflect.DeepEqual(c.dec.PCs.Names(), c.fresh.PCs.Names()) {
			t.Errorf("%s pc names mismatch", c.name)
		}
		if len(c.dec.Program.Units) != len(c.fresh.Program.Units) {
			t.Errorf("%s units = %d, want %d",
				c.name, len(c.dec.Program.Units), len(c.fresh.Program.Units))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	want := renderRun(t, spec, freshTLS, freshSeq)
	got := renderRun(t, spec, decTLS, decSeq)
	if !bytes.Equal(got, want) {
		t.Fatalf("rendered run from decoded Built differs from fresh build\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// Re-encoding a decoded Built must reproduce the same bytes: the format has
// one canonical rendering per program, which is what makes disk entries
// stable across processes.
func TestEncodeBuiltDeterministic(t *testing.T) {
	b := Build(smallSpec(), false)
	enc1 := EncodeBuilt(b)
	dec, err := DecodeBuilt(enc1)
	if err != nil {
		t.Fatalf("DecodeBuilt: %v", err)
	}
	enc2 := EncodeBuilt(dec)
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("encode(decode(encode(b))) != encode(b)")
	}
}

// miniBuilt is a hand-made Built small enough to fuzz from: one
// speculative unit and a final empty barrier unit, two output rows and two
// PC names.
func miniBuilt() *Built {
	tb := trace.NewBuilder()
	tb.ALU(3)
	tb.Load(isa.PC(1), 0x1000)
	tb.Branch(isa.PC(2), true)
	tb.Store(isa.PC(1), 0x1008)
	pcs := isa.NewPCRegistry()
	pcs.Site("load")
	pcs.Site("branch")
	return &Built{
		Program: &sim.Program{Units: []sim.Unit{
			{Trace: tb.Finish()},
			{Trace: trace.NewBuilder().Finish(), Barrier: true},
		}},
		Stats:   Stats{Txns: 1, Epochs: 1, TotalInstrs: 6, Coverage: 0.5},
		PCs:     pcs,
		Digest:  0xfeedface,
		Outputs: [][]int64{{1, -2}, {}},
	}
}

func TestDecodeBuiltRejectsMalformed(t *testing.T) {
	valid := EncodeBuilt(Build(smallSpec(), true))
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[len(builtMagic)] = builtVersion + 1
	trailing := append(append([]byte(nil), valid...), 0xaa)
	// miniBuilt's frame ends in its last unit: barrier byte 1, then an
	// event count of 0.
	barrier2 := EncodeBuilt(miniBuilt())
	if _, err := DecodeBuilt(barrier2); err != nil {
		t.Fatalf("DecodeBuilt(miniBuilt): %v", err)
	}
	barrier2[len(barrier2)-2] = 2
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("NOPE\x01rest"),
		"wrong version": wrongVersion,
		"truncated":     valid[:len(valid)/3],
		"trailing":      trailing,
		"barrier 2":     barrier2,
	}
	for name, data := range cases {
		if _, err := DecodeBuilt(data); err == nil {
			t.Errorf("%s: DecodeBuilt accepted malformed input", name)
		}
	}
}

// A 45-byte TLSB frame claiming 2^24 output rows must fail on the count,
// not allocate room for the rows first.
func TestDecodeBuiltHostileCountAllocatesLittle(t *testing.T) {
	w := snapbin.NewWriter(64)
	w.Header(builtMagic, builtVersion)
	for i := 0; i < 4; i++ {
		w.Uvarint(0) // txns, epochs, total and iter instrs
	}
	for i := 0; i < 4; i++ {
		w.U64(0) // three stats floats and the digest
	}
	w.Uvarint(1 << 24)
	frame := w.Bytes()
	if len(frame) != 45 {
		t.Fatalf("hostile frame is %d bytes, want 45", len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBuilt(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("DecodeBuilt accepted 2^24 output rows in a 45-byte frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the frame allocated %d bytes, want < 1 MB", got)
	}
}

// The Built encoding of every benchmark in both software modes is pinned,
// with a warm-up transaction so the discarded warm-up recording is covered:
// a codec change that moves these bytes would orphan every Built already on
// disk without a builtVersion bump, and a recording change that moves them
// would change what every experiment simulates.
func TestEncodeBuiltPinned(t *testing.T) {
	pins := []struct {
		bench      tpcc.Benchmark
		sequential bool
		want       string
	}{
		{tpcc.NewOrder, false, "82052bbf36daf5d7571d5759c5763ed5dd219909a4cc64d694f98b2b08cdc4b1"},
		{tpcc.NewOrder, true, "f028a395973eeb2ea8f2fa29d1b10ba9afa65aa80e74539f67956c866dbc2c8e"},
		{tpcc.NewOrder150, false, "7e41584f58e9b27b88595f4189b767a79db097578f7f9e2de71cfe40435bf62f"},
		{tpcc.NewOrder150, true, "4aeae48479da64bf01c726bb9e13825c4f865f1565b6e75a6d066ee7b14e9b5e"},
		{tpcc.Delivery, false, "243e80e9e0187695f8eebd3b4a57af87a18ac836f1439e9bcaf3376223a82eb7"},
		{tpcc.Delivery, true, "dfdea96adfe92f33a9161f95d3311e2aeb45e5ee6545115aab289d13abeabfef"},
		{tpcc.DeliveryOuter, false, "84b1fc13b5f6b2d2519262d5cbf69f43f14a1af0212e6af36892274d053b213d"},
		{tpcc.DeliveryOuter, true, "dfdea96adfe92f33a9161f95d3311e2aeb45e5ee6545115aab289d13abeabfef"},
		{tpcc.StockLevel, false, "951fe1584e150097623b11d21e00861bd8f1ecf631bbda9d5900d4e291af9d45"},
		{tpcc.StockLevel, true, "6dde364167f4b511120966b4d11b52c7558b93047d373d04473ebe852c3fc55a"},
		{tpcc.Payment, false, "d020379b3e6bff17745634b6fdd4e4dae135c5dff7685bfb175e1df7f80f83cf"},
		{tpcc.Payment, true, "1e14218dc677f49d539c475a08fef0db5cb7c9592bc3fd3b46df59283c2cc104"},
		{tpcc.OrderStatus, false, "59395c96d7404f1c494d4d1c117351faf20e7aaae32deaa2704eb79231a3224d"},
		{tpcc.OrderStatus, true, "7cdbb91218d4a60d79e7fa9035a7aeb353c196a3a07de9a73fe7c529f6edcbd1"},
	}
	for _, p := range pins {
		mode := "TLS"
		if p.sequential {
			mode = "SEQUENTIAL"
		}
		t.Run(p.bench.String()+"/"+mode, func(t *testing.T) {
			spec := DefaultSpec(p.bench)
			spec.Txns = 1
			spec.Warmup = 1
			sum := sha256.Sum256(EncodeBuilt(Build(spec, p.sequential)))
			if got := hex.EncodeToString(sum[:]); got != p.want {
				t.Fatalf("sha256(EncodeBuilt(%v %s, txns 1, warmup 1)) = %s, want %s",
					p.bench, mode, got, p.want)
			}
		})
	}
}

// FuzzDecodeBuilt: DecodeBuilt never panics, allocates in proportion to
// its input, and accepts only canonical frames — whatever decodes
// re-encodes to the exact input bytes.
func FuzzDecodeBuilt(f *testing.F) {
	// Real programs encode to 40 KB and up, so the smallest benchmark's is
	// the real-program seed. Inputs that size stall the fuzzer's default
	// 60 s minimization of each new input: fuzz with -fuzzminimizetime=100x.
	spec := DefaultSpec(tpcc.OrderStatus)
	spec.Txns = 1
	spec.Warmup = 1
	f.Add(EncodeBuilt(miniBuilt()))
	f.Add(EncodeBuilt(Build(spec, true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := DecodeBuilt(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if re := EncodeBuilt(b); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs (%d bytes in, %d out)", len(data), len(re))
		}
	})
}

func TestCacheKeyStableAndDistinct(t *testing.T) {
	spec := smallSpec()
	k1 := CacheKey(spec, false)
	k2 := CacheKey(spec, false)
	if k1 != k2 {
		t.Fatal("CacheKey not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("CacheKey length = %d, want 64 hex chars", len(k1))
	}
	if CacheKey(spec, true) == k1 {
		t.Fatal("sequential flag not part of the cache key")
	}
	other := spec
	other.Txns++
	if CacheKey(other, false) == k1 {
		t.Fatal("spec change not reflected in the cache key")
	}
}
