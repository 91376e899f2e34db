package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"subthreads/internal/isa"
	"subthreads/internal/snapbin"
)

// sampleTrace exercises every event kind, including back-to-back ALU runs
// (which the Builder merges) and a run length > 1.
func sampleTrace() *Trace {
	b := NewBuilder()
	b.ALU(3)
	b.ALU(2) // merges with the run above
	b.Load(isa.PC(7), 0x1000)
	b.Store(isa.PC(8), 0x1008)
	b.Branch(isa.PC(9), true)
	b.Branch(isa.PC(9), false)
	b.Op(isa.IntMul)
	b.Op(isa.IntDiv)
	b.LatchAcquire(isa.PC(10), 0x2000)
	b.ALU(1)
	b.LatchRelease(isa.PC(10), 0x2000)
	return b.Finish()
}

// encode renders traces back to back in one frame.
func encode(ts ...*Trace) []byte {
	w := snapbin.NewWriter(64)
	for _, t := range ts {
		t.Encode(w)
	}
	return w.Bytes()
}

// decodeOne decodes a frame holding exactly one trace.
func decodeOne(data []byte) (*Trace, error) {
	r := snapbin.NewReader(data)
	t := Decode(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

func TestBinaryRoundTrip(t *testing.T) {
	want := sampleTrace()
	got, err := decodeOne(encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Fatalf("events round-trip mismatch:\n got %v\nwant %v", got.Events(), want.Events())
	}
	if got.Instrs() != want.Instrs() {
		t.Fatalf("instrs = %d, want %d", got.Instrs(), want.Instrs())
	}
	for k := isa.Kind(0); int(k) < isa.NumKinds; k++ {
		if got.Count(k) != want.Count(k) {
			t.Fatalf("count[%v] = %d, want %d", k, got.Count(k), want.Count(k))
		}
	}
}

// Encoding is prefix-framed: two traces concatenate and decode back in order.
func TestBinaryConcatenation(t *testing.T) {
	a := sampleTrace()
	b := NewBuilder()
	b.ALU(42)
	second := b.Finish()

	r := snapbin.NewReader(encode(a, second))
	gotA := Decode(r)
	gotB := Decode(r)
	if err := r.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(gotA.Events(), a.Events()) || !reflect.DeepEqual(gotB.Events(), second.Events()) {
		t.Fatal("concatenated traces decoded out of order")
	}
}

// Garbage, truncation and non-canonical bytes must produce errors, never
// panics.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid := encode(sampleTrace())
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)/2],
		"bad kind":       {1, 0xff},
		"zero alu run":   {1, byte(isa.ALU), 0},
		"truncated alu":  {1, byte(isa.ALU)},
		"huge count":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"missing events": {5},
		"taken 2":        {1, byte(isa.Branch), 9, 2},
		"padded varint":  {1, byte(isa.ALU), 0x83, 0x00},
		"pc over 32 bit": {1, byte(isa.Load), 0x80, 0x80, 0x80, 0x80, 0x10, 0},
		"trailing":       append(append([]byte(nil), valid...), 0),
	}
	for name, data := range cases {
		if _, err := decodeOne(data); err == nil {
			t.Errorf("%s: Decode accepted malformed input", name)
		}
	}
}

// A 4-byte frame claiming 2^28-1 events must fail on its count, not
// allocate room for the events first.
func TestDecodeHostileCountAllocatesLittle(t *testing.T) {
	frame := []byte{0xff, 0xff, 0xff, 0x7f}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeOne(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Decode accepted a count of 2^28-1 events in a 4-byte frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the frame allocated %d bytes, want < 1 MB", got)
	}
}

// The encoding of a fixed trace is pinned: a codec change that moves these
// bytes would silently orphan every Built already on disk.
func TestEncodingPinned(t *testing.T) {
	const want = "124e027d0559a1cd2425efe5f4a03e11fd73e259909d7c3183980218991b7b57"
	sum := sha256.Sum256(encode(sampleTrace()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("sha256(encode(sampleTrace())) = %s, want %s", got, want)
	}
}

// FuzzDecode: Decode never panics, allocates in proportion to its input,
// and accepts only canonical frames — whatever decodes re-encodes to the
// exact input bytes.
func FuzzDecode(f *testing.F) {
	f.Add(encode(sampleTrace()))
	f.Add(encode(NewBuilder().Finish()))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := decodeOne(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if re := encode(tr); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, re)
		}
	})
}
