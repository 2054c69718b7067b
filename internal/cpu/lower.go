package cpu

import "math"

// Driving the simulator is itself an interpreter: trace replay runs a
// step dictionary of event lists over a long stream of step IDs, and
// core.Run drives the events of each (position, fall-through or
// transfer) once per executed VM instruction. Lowering applies the
// paper's two remedies to both. It resolves once per step what the
// per-event loop recomputes on every event — cycle addends, I-cache
// line numbers, a step's integer counter deltas and fetches that
// cannot miss — and ApplyStep dispatches once per step on the step's
// shape instead of once per event on the event's kind.

// shape classifies a lowered step. The fixed shapes are the ones
// core.Run emits for nearly every step; any other step goes through
// the per-event path.
type shape uint8

const (
	// shapeGeneric is a step of no fixed shape; ApplyStep applies
	// nothing for it.
	shapeGeneric shape = iota
	// shapeWFWFD is work, fetch, work, fetch, dispatch: a step that
	// ends in a dispatch.
	shapeWFWFD
	// shapeWFWD is shapeWFWFD whose dispatch fetch is a guaranteed
	// hit, dropped into hitLines.
	shapeWFWD
	// shapeWFW is work, fetch, work: the fall-through inside a
	// superinstruction.
	shapeWFW
)

// lowOp is one event of an entry being lowered.
type lowOp struct {
	kind OpKind
	// cycles is an OpWork's cycle addend.
	cycles float64
	// a and b are an OpFetch's first and last line; a is an
	// OpDispatch's branch.
	a, b uint64
}

// maxShapeOps is the most lowered ops a fixed shape holds; an entry
// that lowers to more is generic.
const maxShapeOps = 5

// maxHitLines is the widest fetch lowering may drop. Recorded fetches
// span a few lines; the bound keeps lowering linear in the dictionary
// whatever a crafted entry holds.
const maxHitLines = 8

// Step is one VM instruction's events specialized to a Sim's machine:
// the same float additions and I-cache touches, in the same order, as
// the per-event calls, with every per-event computation done once. A
// Step of no fixed shape is the zero Step and applies nothing.
//
// The dispatch's hint and target are not part of a Step: the engine
// lowers one Step per (position, fall-through or transfer) and supplies
// the destination on each apply (see ApplyStep and RunStep).
type Step struct {
	// instructions is the step's Instructions delta, summed once.
	instructions uint32
	shape        shape
	// span0 and span1 are how many lines f0's and f1's fetches span,
	// less one; hitLines counts the lines of the dropped fetches, each
	// one I-cache access. A step whose counts overflow these fields
	// has no fixed shape.
	span0, span1, hitLines uint8
	// lines counts the step's I-cache accesses, span0+1, plus span1+1
	// for shapeWFWFD, plus hitLines: all that fetching its lines
	// changes once they are cached but their LRU order.
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

// ApplySteps is Apply over the stream dict[ids[0]], dict[ids[1]], …
// without materializing it: trace replay keeps each distinct step's
// events once and the run as step IDs.
//
// It lowers dict for the sim's machine into the sim's table of steps,
// one entry per step, and runs one lowered entry per ID in the
// resident mode (see RunStep): an entry's first run goes through the
// I-cache model, and later runs skip it and predict from their
// branch's last target until a fetch or a dispatch would evict. An
// entry of no fixed shape goes through Apply after a Sync. The
// counters, float cycle counters included, and the predictor and
// I-cache state, LRU order included, end bit-identical to Apply over
// the expanded stream: every float addition happens in the same order
// with the same operands, integer deltas commute, and a dropped fetch
// is one whose every line is its set's most recently used, which a
// fetch leaves unchanged but for the access count. The table, the
// entries' hints and targets and the mode's scratch live in buffers the
// sim reuses, so only a sim's first call (or a larger dictionary, or
// one with more branches) allocates.
func (s *Sim) ApplySteps(dict [][]Op, ids []uint32) {
	s.BeginSteps(len(dict))
	if cap(s.dests) < len(dict) {
		s.dests = make([]dest, len(dict))
	}
	dests := s.dests[:len(dict)]
	for i, e := range dict {
		s.AddStep(e)
		// A fixed shape holds one dispatch; fetches dropped after it
		// may follow it in the entry.
		dests[i] = dest{}
		for k := len(e) - 1; k >= 0; k-- {
			if e[k].Kind == OpDispatch {
				dests[i] = dest{e[k].B, e[k].C}
				break
			}
		}
	}
	for _, id := range ids {
		d := &dests[id]
		if st := s.Warm(id); st != nil {
			s.Predict(st, d.target)
		} else if !s.RunStep(id, d.hint, d.target) {
			s.Sync()
			s.Apply(dict[id])
		}
	}
	s.Sync()
}

// LowerStep lowers one VM instruction's events for the sim's machine.
// ok is false when they match no fixed shape; such a step must go
// through the per-event calls (or Apply) instead. A Dispatch op's hint
// and target are ignored.
//
// A Work op becomes its cycle addend, float64(float64(int(n)) * CPI)
// exactly as Work computes it; a Fetch op becomes its line range, or
// nothing when Touch would do nothing (size <= 0 or a wrapping range)
// or when the fetch is a guaranteed hit (see guaranteedHit), whose
// lines then count as accesses.
func (s *Sim) LowerStep(ops []Op) (st Step, ok bool) {
	var buf [maxShapeOps]lowOp
	low := buf[:0]
	var instructions, hitLines uint64
	cpi := s.Machine.CPI
	for i := range ops {
		op := &ops[i]
		var lo lowOp
		switch op.Kind {
		case OpWork:
			instructions += op.A
			lo = lowOp{kind: OpWork, cycles: float64(float64(int(op.A)) * cpi)}
		case OpFetch:
			first, last, ok := s.ic.Lines(op.A, int(op.B))
			if !ok { // Touch would do nothing
				continue
			}
			if s.guaranteedHit(low, first, last) {
				hitLines += last - first + 1
				continue
			}
			lo = lowOp{kind: OpFetch, a: first, b: last}
		case OpDispatch:
			lo = lowOp{kind: OpDispatch, a: op.A}
		default:
			continue
		}
		if len(low) == maxShapeOps {
			return Step{}, false
		}
		low = append(low, lo)
	}
	if instructions > math.MaxUint32 || hitLines > math.MaxUint8 {
		return Step{}, false
	}
	st.instructions, st.hitLines = uint32(instructions), uint8(hitLines)
	if !st.classify(low) {
		return Step{}, false
	}
	st.lines = uint16(st.span0) + 1 + uint16(st.hitLines)
	if st.shape == shapeWFWFD {
		st.lines += uint16(st.span1) + 1
	}
	return st, true
}

// classify gives st a fixed shape when its lowered ops match one,
// copying them into st's fields, and reports whether it did. A fetch
// spanning more lines than a span holds matches no shape.
func (st *Step) classify(ops []lowOp) bool {
	kinds := func(ks ...OpKind) bool {
		if len(ops) != len(ks) {
			return false
		}
		for i, k := range ks {
			if ops[i].kind != k {
				return false
			}
		}
		return true
	}
	span := func(op lowOp) (uint8, bool) {
		d := op.b - op.a
		return uint8(d), d <= math.MaxUint8
	}
	var ok bool
	switch {
	case st.hitLines == 0 && kinds(OpWork, OpFetch, OpWork, OpFetch, OpDispatch):
		st.shape = shapeWFWFD
		st.f1 = ops[3].a
		if st.span1, ok = span(ops[3]); !ok {
			return false
		}
	case kinds(OpWork, OpFetch, OpWork, OpDispatch):
		st.shape = shapeWFWD
	case st.hitLines == 0 && kinds(OpWork, OpFetch, OpWork):
		st.shape = shapeWFW
	default:
		return false
	}
	st.w0, st.f0, st.w1 = ops[0].cycles, ops[1].a, ops[2].cycles
	if st.span0, ok = span(ops[1]); !ok {
		return false
	}
	if d := ops[len(ops)-1]; d.kind == OpDispatch {
		st.branch = d.a
	}
	return true
}

// ApplyStep applies one lowered step, its dispatch (if it has one)
// predicting hint and jumping to target, and reports whether it did: a
// step of no fixed shape applies nothing and returns false. The
// counters and the predictor and I-cache state end bit-identical to
// the per-event calls the step was lowered from; the Sink is not
// observed.
func (s *Sim) ApplyStep(st *Step, hint, target uint64) bool {
	if st.shape == shapeGeneric {
		return false
	}
	// Every fixed shape starts work, fetch, work.
	c := &s.C
	ic := s.ic
	c.Instructions += uint64(st.instructions)
	c.Cycles += st.w0
	// TouchLines' fast path, a one-line hit on the set's most recently
	// used line, is checked inline, which saves a call on most fetches.
	if st.span0 != 0 || !ic.HitMRU(st.f0) {
		s.chargeMisses(ic.TouchLines(st.f0, st.f0+uint64(st.span0)))
	}
	c.Cycles += st.w1
	switch st.shape {
	case shapeWFW:
		return true
	case shapeWFWFD:
		if st.span1 != 0 || !ic.HitMRU(st.f1) {
			s.chargeMisses(ic.TouchLines(st.f1, st.f1+uint64(st.span1)))
		}
	case shapeWFWD:
		ic.Accesses += uint64(st.hitLines)
	}
	c.Dispatches++
	s.Indirect(st.branch, hint, target)
	return true
}

// guaranteedHit reports whether fetching lines first..last after the
// entry's lowered ops prev is sure to hit on every line without
// changing the I-cache beyond its access count. That holds when each
// line is the one the entry's latest touch of its set fetched: a touch
// leaves its line most recently used in its set, and fetching a set's
// most recently used line moves nothing. Since each set has one
// latest line, the lines that pass lie in distinct sets, so fetching
// one cannot demote another; in particular a fetch spanning more lines
// than there are sets revisits a set within itself and never passes.
func (s *Sim) guaranteedHit(prev []lowOp, first, last uint64) bool {
	if last-first >= maxHitLines {
		return false
	}
	mask := uint64(s.ic.Sets() - 1)
	for l := first; l <= last; l++ {
		if !latestInSet(prev, l, mask) {
			return false
		}
	}
	return true
}

// latestInSet reports whether the latest fetch in prev to touch l's
// set touched line l last. A fetch of lines f..la touches them in
// order, so within it the last line in l's set is the largest one
// congruent to l modulo the set count, la - ((la-l) & mask), if that
// is not below f.
func latestInSet(prev []lowOp, l, mask uint64) bool {
	for i := len(prev) - 1; i >= 0; i-- {
		op := &prev[i]
		if op.kind != OpFetch {
			continue
		}
		if d := (op.b - l) & mask; d <= op.b-op.a {
			return op.b-d == l
		}
	}
	return false
}
