package trace

import (
	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/snapbin"
)

// Compact binary encoding of a Trace, used by the persistent build-artifact
// cache (internal/cas via internal/workload). It is written with snapbin
// rather than gob/reflection so it is small, fast, versioned at the
// container level (workload's Built frame), and byte-stable: one event costs
// 1 byte of kind plus only the varint fields that kind actually carries.
//
// Decoding reconstructs the exact event sequence — ALU run lengths included
// — so a decoded trace replays cycle-identically to the recorded one; the
// derived instruction and per-kind counters are recomputed from the events,
// keeping a decoded trace self-consistent by construction.

// Encode appends the compact encoding of t to w.
func (t *Trace) Encode(w *snapbin.Writer) {
	w.Uvarint(uint64(len(t.events)))
	for i := range t.events {
		e := &t.events[i]
		w.U8(uint8(e.Kind))
		switch e.Kind {
		case isa.ALU:
			w.Uvarint(uint64(e.N))
		case isa.Branch:
			w.Uvarint(uint64(e.PC))
			w.Bool(e.Taken)
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			w.Uvarint(uint64(e.PC))
			w.Uvarint(uint64(e.Addr))
		default:
			// Long-latency ops (IntMul, IntDiv, FP*) carry only their kind.
		}
	}
}

// Decode reads one trace written by Encode from r. A truncated or
// inconsistent stream latches an error in r and returns nil, never panics.
func Decode(r *snapbin.Reader) *Trace {
	// Real traces are a few hundred thousand events.
	n := r.Count("trace events", 1<<28)
	t := &Trace{events: make([]Event, 0, n)}
	for i := 0; i < n; i++ {
		e := Event{Kind: isa.Kind(r.U8("event kind")), N: 1}
		switch e.Kind {
		case isa.ALU:
			e.N = r.Uvarint32("alu run")
			if r.Err() == nil && e.N == 0 {
				r.Failf("trace: zero alu run length")
			}
		case isa.Branch:
			e.PC = isa.PC(r.Uvarint32("branch pc"))
			e.Taken = r.Bool("branch taken")
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			e.PC = isa.PC(r.Uvarint32("mem pc"))
			e.Addr = mem.Addr(r.Uvarint32("mem addr"))
		default:
			if r.Err() == nil && int(e.Kind) >= isa.NumKinds {
				r.Failf("trace: unknown event kind %d", e.Kind)
			}
		}
		if r.Err() != nil {
			return nil
		}
		// push (not the merging ALU method) preserves the recorded event
		// sequence exactly while recomputing instrs and per-kind counts.
		t.push(e)
	}
	if r.Err() != nil {
		return nil
	}
	return t
}
