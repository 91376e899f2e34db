package snapbin

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(0xdeadbeefcafef00d)
	w.Uvarint(300)
	w.Varint(-42)
	w.Int(-1)
	w.Blob([]byte{1, 2, 3})
	w.String("hello")
	w.Raw([]byte("MG"))

	r := NewReader(w.Bytes())
	if got := r.U8("u8"); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool("b1") || r.Bool("b2") {
		t.Errorf("bools wrong")
	}
	if got := r.U64("u64"); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Uvarint("uv"); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint("v"); got != -42 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Int("i"); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Blob("blob", 16); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.String("str", 16); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Raw(2, "raw"); !bytes.Equal(got, []byte("MG")) {
		t.Errorf("Raw = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{0x80}) // incomplete varint
	_ = r.Uvarint("first")
	if r.Err() == nil {
		t.Fatal("want error on bad varint")
	}
	first := r.Err()
	// Later reads return zero values and keep the first error.
	if got := r.U64("later"); got != 0 {
		t.Errorf("post-error U64 = %d", got)
	}
	if r.Err() != first {
		t.Errorf("error not sticky")
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(8)
	w.Blob([]byte("abcdef"))
	enc := w.Bytes()
	r := NewReader(enc[:3])
	_ = r.Blob("blob", 64)
	if r.Err() == nil {
		t.Fatal("want truncation error")
	}
}

func TestCountCap(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(1 << 30)
	r := NewReader(w.Bytes())
	_ = r.Count("items", 1024)
	if r.Err() == nil {
		t.Fatal("want cap error")
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	_ = r.Bool("flag")
	if r.Err() == nil {
		t.Fatal("want bad-bool error")
	}
}

func TestTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U8("one")
	if err := r.Done(); err == nil {
		t.Fatal("want trailing-bytes error")
	}
}

func TestHeader(t *testing.T) {
	w := NewWriter(8)
	w.Header("MAGC", 3)
	if got := string(w.Bytes()); got != "MAGC\x03" {
		t.Fatalf("header bytes = %q", got)
	}
	cases := map[string]struct {
		data []byte
		ok   bool
	}{
		"valid":         {[]byte("MAGC\x03"), true},
		"bad magic":     {[]byte("MAGX\x03"), false},
		"wrong version": {[]byte("MAGC\x04"), false},
		"truncated":     {[]byte("MAG"), false},
		"no version":    {[]byte("MAGC"), false},
	}
	for name, c := range cases {
		r := NewReader(c.data)
		r.Header("MAGC", 3)
		if (r.Err() == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", name, r.Err(), c.ok)
		}
	}
}

// A count can never exceed the bytes left: each element takes at least one.
func TestCountBoundedByRemaining(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(3)
	w.Raw([]byte{1, 2})
	r := NewReader(w.Bytes())
	if n := r.Count("items", 1<<20); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err = %v; want an error for 3 items in 2 bytes", n, r.Err())
	}
	r = NewReader([]byte{2, 1, 2})
	if n := r.Count("items", 1<<20); n != 2 || r.Err() != nil {
		t.Fatalf("Count = %d, err = %v; want 2", n, r.Err())
	}
}

// Only minimal varints decode, so every accepted frame re-encodes to itself.
func TestVarintsMustBeMinimal(t *testing.T) {
	for name, data := range map[string][]byte{
		"uvarint padded": {0x81, 0x00},
		"zero padded":    {0x80, 0x00},
	} {
		r := NewReader(data)
		_ = r.Uvarint("u")
		if r.Err() == nil {
			t.Errorf("%s: Uvarint accepted % x", name, data)
		}
		r = NewReader(data)
		_ = r.Varint("v")
		if r.Err() == nil {
			t.Errorf("%s: Varint accepted % x", name, data)
		}
	}
	w := NewWriter(32)
	w.Varint(-1 << 63)
	w.Varint(1<<63 - 1)
	w.Uvarint(1<<64 - 1)
	w.Uvarint(0)
	r := NewReader(w.Bytes())
	if r.Varint("min") != -1<<63 || r.Varint("max") != 1<<63-1 || r.Uvarint("umax") != 1<<64-1 || r.Uvarint("zero") != 0 {
		t.Fatal("extreme varints did not round-trip")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestUvarint32(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(1<<32 - 1)
	w.Uvarint(1 << 32)
	r := NewReader(w.Bytes())
	if got := r.Uvarint32("max"); got != 1<<32-1 || r.Err() != nil {
		t.Fatalf("Uvarint32(max) = %d, err = %v", got, r.Err())
	}
	_ = r.Uvarint32("over")
	if r.Err() == nil {
		t.Fatal("Uvarint32 accepted 2^32")
	}
}
