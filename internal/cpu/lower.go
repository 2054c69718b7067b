package cpu

import (
	"math"

	"vmopt/internal/steptok"
)

// Driving the simulator is itself an interpreter: trace replay runs a
// step dictionary of event lists over a long stream of steps, and
// core.Run drives the events of each (position, fall-through or
// transfer) once per executed VM instruction. Lowering applies the
// paper's two remedies to both. It resolves once per step what the
// per-event loop recomputes on every event — cycle addends, I-cache
// line numbers and a step's integer counter deltas — and RunStep
// dispatches once per step on the step's shape instead of once per
// event on the event's kind.

// shape classifies a lowered step. The fixed shapes are the two
// core.Run emits for nearly every step; any other step goes through
// the per-event path.
type shape uint8

const (
	// shapeGeneric is a step of no fixed shape; RunStep applies
	// nothing for it.
	shapeGeneric shape = iota
	// shapeWFWFD is work, fetch, work, fetch, dispatch: a step that
	// ends in a dispatch.
	shapeWFWFD
	// shapeWFW is work, fetch, work: the fall-through inside a
	// superinstruction.
	shapeWFW
)

// Step is one VM instruction's events specialized to a Sim's machine:
// the same float additions and I-cache touches, in the same order, as
// the per-event calls, with every per-event computation done once. A
// Step of no fixed shape is the zero Step and applies nothing.
//
// The dispatch's hint and target are not part of a Step: the engine
// lowers one Step per (position, fall-through or transfer) and supplies
// the destination on each run (see RunStep).
type Step struct {
	// instructions is the step's Instructions delta, summed once.
	instructions uint32
	shape        shape
	// span0 and span1 are how many lines f0's and f1's fetches span,
	// less one.
	span0, span1 uint8
	// lines counts the step's I-cache accesses, span0+1, plus span1+1
	// for shapeWFWFD: all that fetching its lines changes once they
	// are cached but their LRU order.
	lines uint16
	// bi is the index of the step's branch among the branches of the
	// sim's table of steps on a set-associative BTB (see AddStep).
	bi uint32
	// use stamps the step's latest run in the resident mode (see
	// RunStep).
	use uint64
	// w0, f0, w1, f1 and branch are the events of the fixed shapes, in
	// order: cycle addends, first lines of the fetches and the
	// dispatch branch.
	w0, w1         float64
	f0, f1, branch uint64
}

// dest is the hint and target of a dictionary entry's recorded
// dispatch.
type dest struct{ hint, target uint64 }

// ApplySteps is Apply over the stream of steps that toks, a valid
// successor-run token stream over dict (see package steptok), names,
// without materializing it: trace replay keeps each distinct step's
// events once and the run as tokens.
//
// It lowers dict for the sim's machine into the sim's table of steps,
// one entry per step, and runs one lowered entry per step in the
// resident mode (see RunStep): an entry's first run goes through the
// I-cache model, and later runs skip it and predict from their
// branch's last target until a fetch or a dispatch would evict. An
// entry of no fixed shape goes through Apply after a Sync. The
// counters, float cycle counters included, and the predictor and
// I-cache state, LRU order included, end bit-identical to Apply over
// the expanded stream: every float addition happens in the same order
// with the same operands, and integer deltas commute. The table, the
// entries' hints and targets, the successor table the tokens are read
// with and the mode's scratch live in buffers the sim reuses, so only a
// sim's first call (or a larger dictionary) allocates.
func (s *Sim) ApplySteps(dict [][]Op, toks []uint16) {
	s.res.presize(len(dict))
	s.BeginSteps(len(dict))
	if cap(s.dests) < len(dict) {
		s.dests = make([]dest, len(dict))
	}
	dests := s.dests[:len(dict)]
	for i, e := range dict {
		s.AddStep(e)
		// Only a fixed shape's dest is read, and one that dispatches
		// ends in its dispatch.
		if n := len(e); n > 0 {
			dests[i] = dest{e[n-1].B, e[n-1].C}
		}
	}
	// A valid stream sets every successor it follows, so the table
	// needs no clearing between calls.
	if cap(s.next) <= len(dict) {
		s.next = make([]uint32, len(dict)+1)
	}
	next := s.next[:len(dict)+1]
	id := uint32(len(dict)) // the virtual step before the first
	for i := 0; i < len(toks); {
		var n int
		n, i = steptok.Take(toks, i, next, id)
		for ; n > 0; n-- {
			id = next[id]
			d := &dests[id]
			if st := s.Warm(id); st != nil {
				s.Predict(st, d.target)
			} else if !s.RunStep(id, d.hint, d.target) {
				s.Sync()
				s.Apply(dict[id])
			}
		}
	}
	s.Sync()
}

// lowerStep lowers one VM instruction's events for the sim's machine.
// ok is false unless they are work, fetch, work, optionally followed
// by a fetch and a dispatch, with the work summing to at most
// MaxUint32 instructions and every fetch one that Touch carries out
// (size > 0 and no wrapping range) over at most 256 lines; any other
// step must go through the per-event calls (or Apply) instead. A
// Dispatch op's hint and target are ignored.
//
// A Work op becomes its cycle addend, float64(float64(int(n)) * CPI)
// exactly as Work computes it, and a Fetch op its line range.
func (s *Sim) lowerStep(ops []Op) (st Step, ok bool) {
	switch {
	case len(ops) == 3:
		st.shape = shapeWFW
	case len(ops) == 5 && ops[3].Kind == OpFetch && ops[4].Kind == OpDispatch:
		st.shape = shapeWFWFD
	default:
		return Step{}, false
	}
	w0, w1 := ops[0].A, ops[2].A
	if ops[0].Kind != OpWork || ops[1].Kind != OpFetch || ops[2].Kind != OpWork ||
		w0 > math.MaxUint32 || w1 > math.MaxUint32-w0 {
		return Step{}, false
	}
	if st.f0, st.span0, ok = s.lines(&ops[1]); !ok {
		return Step{}, false
	}
	st.lines = uint16(st.span0) + 1
	if st.shape == shapeWFWFD {
		if st.f1, st.span1, ok = s.lines(&ops[3]); !ok {
			return Step{}, false
		}
		st.lines += uint16(st.span1) + 1
		st.branch = ops[4].A
	}
	cpi := s.Machine.CPI
	st.instructions = uint32(w0 + w1)
	st.w0, st.w1 = float64(float64(int(w0))*cpi), float64(float64(int(w1))*cpi)
	return st, true
}

// lines returns the first line a Fetch op fetches and how many more it
// spans; ok is false when Touch would do nothing or the fetch spans
// more than 256 lines.
func (s *Sim) lines(op *Op) (first uint64, span uint8, ok bool) {
	first, last, ok := s.ic.Lines(op.A, int(op.B))
	if !ok || last-first > math.MaxUint8 {
		return 0, 0, false
	}
	return first, uint8(last - first), true
}
