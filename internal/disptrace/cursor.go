package disptrace

import (
	"vmopt/internal/cpu"
	"vmopt/internal/steptok"
)

// Step is one VM instruction's slice of the replay stream: the
// instruction's global index and every simulator event it produced,
// in stream order. Ops aliases the trace's immutable step dictionary:
// it stays valid, but must not be modified.
type Step struct {
	// Index is the VM-instruction index of the step, counted from the
	// start of the trace.
	Index uint64
	// Ops is the instruction's event slice (work, fetches, at most
	// one dispatch for engine-recorded streams).
	Ops []cpu.Op
}

// Work sums the step's straight-line native instruction count.
func (s Step) Work() uint64 {
	var n uint64
	for _, op := range s.Ops {
		if op.Kind == cpu.OpWork {
			n += op.A
		}
	}
	return n
}

// Fetch returns the step's first instruction-fetch address — the code
// address of the VM instruction's implementation — and whether the
// step fetched at all.
func (s Step) Fetch() (addr uint64, ok bool) {
	for _, op := range s.Ops {
		if op.Kind == cpu.OpFetch {
			return op.A, true
		}
	}
	return 0, false
}

// Dispatch returns the step's dispatch branch and target addresses,
// and whether the step dispatched (fall-through steps inside a basic
// block do not).
func (s Step) Dispatch() (branch, target uint64, ok bool) {
	for _, op := range s.Ops {
		if op.Kind == cpu.OpDispatch {
			return op.A, op.C, true
		}
	}
	return 0, 0, false
}

// Cursor iterates a trace's stream indexed by VM instruction, walking
// its tokens. Step consumers (Next) read one dictionary entry per
// instruction; bulk consumers (NextBatch) get the expanded op stream.
//
// A Cursor is not safe for concurrent use; independent goroutines
// each take their own.
type Cursor struct {
	a *Arena
	r steptok.Reader
	// next is the index of the step Next (or NextBatch) returns.
	next uint64
	// ids holds one NextBatch's step IDs.
	ids []uint32
}

// batchSteps is how many steps one NextBatch call expands.
const batchSteps = 1 << 12

// NewCursor positions a cursor at the start of the trace.
func NewCursor(t *Trace) *Cursor {
	return &Cursor{a: t.arena, r: t.arena.reader()}
}

// Err returns the first error the cursor hit. Decode validates every
// token up front, so iterating a trace cannot fail and Err is always
// nil; it stays for callers that check it after a drain.
func (c *Cursor) Err() error { return nil }

// Next returns the next step and advances. It returns false at the
// end of the trace.
func (c *Cursor) Next() (Step, bool) {
	id, ok := c.r.Step()
	if !ok {
		return Step{}, false
	}
	st := Step{Index: c.next, Ops: c.a.dict[id]}
	c.next++
	return st, true
}

// NextBatch appends the ops of the next steps onto dst and advances
// past them, returning false at the end of the trace. Applying every
// batch in order reproduces the full op stream, dispatches and fetches
// included.
func (c *Cursor) NextBatch(dst []cpu.Op) ([]cpu.Op, bool) {
	if c.ids == nil {
		c.ids = make([]uint32, batchSteps)
	}
	n := c.r.Fill(c.ids)
	if n == 0 {
		return dst, false
	}
	for _, id := range c.ids[:n] {
		dst = append(dst, c.a.dict[id]...)
	}
	c.next += uint64(n)
	return dst, true
}
