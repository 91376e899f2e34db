// Package snapbin is the repository's one binary codec: a Writer that
// appends fixed-width and varint fields to one growing buffer, and a Reader
// that consumes them with a sticky error, so every persisted frame — machine
// snapshots and the per-package state they are built from, recorded traces,
// workload.Built programs and CAS entry headers — serializes its own
// unexported state without import cycles and without per-field error
// plumbing.
//
// Frames open with Header (magic string + version byte), frame counts as
// uvarints and cap anything attacker- or corruption-sized. The Reader is
// strict: it accepts only the bytes a Writer produces (minimal varints,
// bools as 0 or 1), so every frame that decodes re-encodes to itself, and
// no element count can exceed the bytes left to hold its elements.
package snapbin

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates an encoded frame. The zero value is ready to use;
// NewWriter pre-sizes the buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity pre-allocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded frame.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the encoded size so far.
func (w *Writer) Len() int { return len(w.buf) }

// Raw appends bytes verbatim (magic strings, pre-encoded sub-frames).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Header appends a frame header: the magic string, then one version byte.
func (w *Writer) Header(magic string, version uint8) {
	w.buf = append(w.buf, magic...)
	w.buf = append(w.buf, version)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U64 appends a fixed-width little-endian uint64 (float bits, digests).
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends an unsigned varint (the encoding/binary format). It
// appends byte by byte rather than through binary.AppendUvarint: the
// self-append form stores only the slice length, where assigning a returned
// slice stores its pointer too and pays a GC write barrier per field.
func (w *Writer) Uvarint(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(v int64) {
	w.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// Int appends a signed int as a varint (slot indices, -1 sentinels).
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes a frame produced by Writer. The first decode failure
// latches in err; every later read returns a zero value, so codecs read
// straight through and check Err once. Reads advance an offset rather than
// reslicing data, so the hot path stores no pointers.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches an error (semantic validation by codecs).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf latches a formatted error.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Raw consumes n bytes verbatim; nil on error or truncation.
func (r *Reader) Raw(n int, field string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Failf("truncated %s (want %d bytes, have %d)", field, n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Header consumes a header written by Writer.Header, latching an error
// unless it carries exactly magic and version.
func (r *Reader) Header(magic string, version uint8) {
	got := r.Raw(len(magic), "magic")
	if r.err == nil && string(got) != magic {
		r.Failf("bad magic %q, want %q", got, magic)
		return
	}
	if v := r.U8("version"); r.err == nil && v != version {
		r.Failf("unsupported version %d, want %d", v, version)
	}
}

// U8 consumes one byte.
func (r *Reader) U8(field string) uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.Failf("truncated %s", field)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// Bool consumes a one-byte bool; any value other than 0 or 1 is an error.
func (r *Reader) Bool(field string) bool {
	v := r.U8(field)
	if v > 1 {
		r.Failf("bad bool %d for %s", v, field)
		return false
	}
	return v == 1
}

// U64 consumes a fixed-width little-endian uint64.
func (r *Reader) U64(field string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.Failf("truncated %s", field)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// Uvarint consumes an unsigned varint. Only the minimal encoding Writer
// produces is accepted: a padded one (a zero final byte after the first)
// would decode to the same value but re-encode to different bytes.
func (r *Reader) Uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || (n > 1 && r.data[r.off+n-1] == 0) {
		r.Failf("bad varint for %s", field)
		return 0
	}
	r.off += n
	return v
}

// Uvarint32 consumes an unsigned varint that must fit in 32 bits.
func (r *Reader) Uvarint32(field string) uint32 {
	v := r.Uvarint(field)
	if v > 1<<32-1 {
		r.Failf("%s %d out of 32-bit range", field, v)
		return 0
	}
	return uint32(v)
}

// Varint consumes a zig-zag signed varint (minimal encoding only, as for
// Uvarint).
func (r *Reader) Varint(field string) int64 {
	u := r.Uvarint(field)
	return int64(u>>1) ^ -int64(u&1)
}

// Int consumes a signed int encoded by Writer.Int.
func (r *Reader) Int(field string) int { return int(r.Varint(field)) }

// Count consumes an element count and rejects values above max or above
// the bytes left in the frame (every encoded element takes at least one
// byte), so a corrupted-but-well-framed length can never force an
// allocation larger than the input.
func (r *Reader) Count(field string, max int) int {
	n := r.Uvarint(field)
	if r.err != nil {
		return 0
	}
	if n > uint64(max) {
		r.Failf("implausible %s count %d (cap %d)", field, n, max)
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.Failf("truncated %s: count %d, %d bytes left", field, n, r.Remaining())
		return 0
	}
	return int(n)
}

// Blob consumes a length-prefixed byte string of at most max bytes. The
// returned slice aliases the frame.
func (r *Reader) Blob(field string, max int) []byte {
	n := r.Count(field+" length", max)
	return r.Raw(n, field)
}

// String consumes a length-prefixed string of at most max bytes.
func (r *Reader) String(field string, max int) string {
	return string(r.Blob(field, max))
}

// Done verifies the frame was fully consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after frame", r.Remaining())
	}
	return nil
}
