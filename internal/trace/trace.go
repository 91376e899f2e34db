// Package trace holds the instruction traces that the workload substrate
// records and the simulator replays. A speculative thread (epoch) is one
// trace; rewinding to a sub-thread checkpoint is implemented by seeking the
// trace cursor back to a saved position and replaying — deterministic replay
// is exactly what the paper's trace-driven simulator does when a violated
// thread restarts.
package trace

import (
	"fmt"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Event is one entry of a trace. ALU events are run-length compressed:
// N consecutive simple integer instructions become a single event with
// N > 1. All other kinds have N == 1.
//
// The three 4-byte fields come first so an Event packs into 16 bytes; the
// encoding writes fields by name, so their order is not part of it.
type Event struct {
	PC    isa.PC
	Addr  mem.Addr // Load, Store, LatchAcquire, LatchRelease
	N     uint32   // run length; >= 1
	Kind  isa.Kind
	Taken bool // Branch outcome
}

func (e Event) String() string {
	switch e.Kind {
	case isa.ALU:
		return fmt.Sprintf("alu x%d", e.N)
	case isa.Branch:
		return fmt.Sprintf("branch pc=%d taken=%v", e.PC, e.Taken)
	case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
		return fmt.Sprintf("%v pc=%d addr=%v", e.Kind, e.PC, e.Addr)
	default:
		return e.Kind.String()
	}
}

// Trace is an immutable recorded instruction stream.
type Trace struct {
	events []Event
	instrs uint64
	counts [isa.NumKinds]uint64
}

// Events returns the underlying event slice (read-only by convention).
func (t *Trace) Events() []Event { return t.events }

// Instrs is the total dynamic instruction count of the trace.
func (t *Trace) Instrs() uint64 { return t.instrs }

// Count reports how many dynamic instructions of kind k the trace holds.
func (t *Trace) Count(k isa.Kind) uint64 { return t.counts[k] }

// MemRefs is the number of loads plus stores.
func (t *Trace) MemRefs() uint64 { return t.counts[isa.Load] + t.counts[isa.Store] }

// Recorder receives the instruction stream emitted by the workload substrate
// while it executes. Builder records it; Null discards it (used when loading
// the database, which is not timed).
type Recorder interface {
	Load(pc isa.PC, addr mem.Addr)
	Store(pc isa.PC, addr mem.Addr)
	ALU(n uint32)
	Op(k isa.Kind) // single long-latency op: IntMul, IntDiv, FPOp, FPDiv, FPSqrt
	Branch(pc isa.PC, taken bool)
	LatchAcquire(pc isa.PC, addr mem.Addr)
	LatchRelease(pc isa.PC, addr mem.Addr)
}

// push appends e and accounts its instructions.
func (t *Trace) push(e Event) {
	t.events = append(t.events, e)
	t.instrs += uint64(e.N)
	t.counts[e.Kind] += uint64(e.N)
}

// Builder accumulates events into a Trace, merging consecutive ALU runs.
// Its buffer is scratch space: Finish copies the trace out, so one Builder
// can record any number of traces without regrowing.
type Builder struct {
	t Trace
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset discards everything recorded so far, retaining capacity.
func (b *Builder) Reset() {
	b.t.events = b.t.events[:0]
	b.t.instrs = 0
	b.t.counts = [isa.NumKinds]uint64{}
}

// Finish returns a copy of the recorded trace whose event slice is exactly
// its length, and resets the Builder for the next trace.
func (b *Builder) Finish() *Trace {
	// make then copy between two local names compiles to one allocation
	// that is copied into, not zeroed first.
	src := b.t.events
	events := make([]Event, len(src))
	copy(events, src)
	t := b.t
	t.events = events
	b.Reset()
	return &t
}

// Instrs reports the instructions recorded so far.
func (b *Builder) Instrs() uint64 { return b.t.instrs }

// Load implements Recorder.
func (b *Builder) Load(pc isa.PC, addr mem.Addr) {
	b.t.push(Event{Kind: isa.Load, PC: pc, Addr: addr, N: 1})
}

// Store implements Recorder.
func (b *Builder) Store(pc isa.PC, addr mem.Addr) {
	b.t.push(Event{Kind: isa.Store, PC: pc, Addr: addr, N: 1})
}

// ALU implements Recorder, merging into a preceding ALU run when possible.
func (b *Builder) ALU(n uint32) {
	if n == 0 {
		return
	}
	if l := len(b.t.events); l > 0 && b.t.events[l-1].Kind == isa.ALU {
		b.t.events[l-1].N += n
		b.t.instrs += uint64(n)
		b.t.counts[isa.ALU] += uint64(n)
		return
	}
	b.t.push(Event{Kind: isa.ALU, N: n})
}

// Op implements Recorder.
func (b *Builder) Op(k isa.Kind) {
	b.t.push(Event{Kind: k, N: 1})
}

// Branch implements Recorder.
func (b *Builder) Branch(pc isa.PC, taken bool) {
	b.t.push(Event{Kind: isa.Branch, PC: pc, Taken: taken, N: 1})
}

// LatchAcquire implements Recorder.
func (b *Builder) LatchAcquire(pc isa.PC, addr mem.Addr) {
	b.t.push(Event{Kind: isa.LatchAcquire, PC: pc, Addr: addr, N: 1})
}

// LatchRelease implements Recorder.
func (b *Builder) LatchRelease(pc isa.PC, addr mem.Addr) {
	b.t.push(Event{Kind: isa.LatchRelease, PC: pc, Addr: addr, N: 1})
}

// Null is a Recorder that discards everything.
type Null struct{}

func (Null) Load(isa.PC, mem.Addr)         {}
func (Null) Store(isa.PC, mem.Addr)        {}
func (Null) ALU(uint32)                    {}
func (Null) Op(isa.Kind)                   {}
func (Null) Branch(isa.PC, bool)           {}
func (Null) LatchAcquire(isa.PC, mem.Addr) {}
func (Null) LatchRelease(isa.PC, mem.Addr) {}

var _ Recorder = (*Builder)(nil)
var _ Recorder = Null{}
