package cpu

// Trace replay is itself an interpreter: a step dictionary of event
// lists driven by a long stream of step IDs. ApplySteps applies the
// paper's two remedies to it. It resolves once per replay what the
// per-event loop recomputes on every event — cycle addends, I-cache
// line numbers, a step's integer counter deltas and fetches that
// cannot miss — and it dispatches once per step on the step's shape
// instead of once per event on the event's kind.

// shape classifies a lowered dictionary entry. The fixed shapes are
// the ones core.Run emits for nearly every step; any other entry runs
// through Apply.
type shape uint8

const (
	// shapeGeneric runs the entry's ops through Apply.
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
	// a and b are an OpFetch's first and last line; a, b and c are an
	// OpDispatch's branch, hint and target.
	a, b, c uint64
}

// maxShapeOps is the most lowered ops a fixed shape holds; an entry
// that lowers to more is generic.
const maxShapeOps = 5

// maxHitLines is the widest fetch lowering may drop. Recorded fetches
// span a few lines; the bound keeps lowering linear in the dictionary
// whatever a crafted entry holds.
const maxHitLines = 8

// loweredStep is one dictionary entry specialized to a Sim's machine.
// A generic entry is the zero loweredStep.
type loweredStep struct {
	shape shape
	// instructions is the entry's Instructions delta, summed once;
	// hitLines counts the lines of its dropped fetches, each one
	// I-cache access.
	instructions, hitLines uint64
	// w0, f0/l0, w1, f1/l1 and branch/hint/target are the events of
	// the fixed shapes, in order: cycle addends, fetched line ranges
	// and the dispatch.
	w0, w1               float64
	f0, l0, f1, l1       uint64
	branch, hint, target uint64
}

// ApplySteps is Apply over the stream dict[ids[0]], dict[ids[1]], …
// without materializing it: trace replay keeps each distinct step's
// events once and the run as step IDs.
//
// It first lowers dict for the sim's machine (see lower), then applies
// one lowered entry per ID; an entry of no fixed shape goes through
// Apply. The counters, float cycle counters included, and the
// predictor and I-cache state end bit-identical to Apply over the
// expanded stream: every float addition happens in the same order with
// the same operands, integer deltas commute, and a dropped fetch is
// one whose every line is its set's most recently used, which a fetch
// leaves unchanged but for the access count. The lowered entries live
// in a buffer the sim reuses, so only a sim's first call (or a larger
// dictionary) allocates.
func (s *Sim) ApplySteps(dict [][]Op, ids []uint32) {
	steps := s.lower(dict)
	c := &s.C
	ic := s.ic
	for _, id := range ids {
		st := &steps[id]
		switch st.shape {
		case shapeWFWFD:
			c.Instructions += st.instructions
			c.Cycles += st.w0
			s.chargeMisses(ic.TouchLines(st.f0, st.l0))
			c.Cycles += st.w1
			s.chargeMisses(ic.TouchLines(st.f1, st.l1))
			c.Dispatches++
			s.Indirect(st.branch, st.hint, st.target)
		case shapeWFWD:
			c.Instructions += st.instructions
			c.Cycles += st.w0
			s.chargeMisses(ic.TouchLines(st.f0, st.l0))
			c.Cycles += st.w1
			ic.Accesses += st.hitLines
			c.Dispatches++
			s.Indirect(st.branch, st.hint, st.target)
		case shapeWFW:
			c.Instructions += st.instructions
			c.Cycles += st.w0
			s.chargeMisses(ic.TouchLines(st.f0, st.l0))
			c.Cycles += st.w1
		default:
			s.Apply(dict[id])
		}
	}
}

// lower specializes every dictionary entry to the sim's machine, into
// s.steps, and returns the lowered entries.
func (s *Sim) lower(dict [][]Op) []loweredStep {
	if cap(s.steps) < len(dict) {
		s.steps = make([]loweredStep, len(dict))
	}
	s.steps = s.steps[:len(dict)]
	for i, e := range dict {
		s.steps[i] = s.lowerStep(e)
	}
	return s.steps
}

// lowerStep lowers one entry into a fixed shape, or returns the
// generic zero loweredStep. A Work op becomes its cycle addend,
// float64(float64(int(n)) * CPI) exactly as Apply computes it; a Fetch
// op becomes its line range, or nothing when Touch would do nothing
// (size <= 0 or a wrapping range) or when the fetch is a guaranteed
// hit (see guaranteedHit), whose lines then count as accesses.
func (s *Sim) lowerStep(e []Op) loweredStep {
	var buf [maxShapeOps]lowOp
	ops := buf[:0]
	var st loweredStep
	cpi := s.Machine.CPI
	for i := range e {
		op := &e[i]
		var lo lowOp
		switch op.Kind {
		case OpWork:
			st.instructions += op.A
			lo = lowOp{kind: OpWork, cycles: float64(float64(int(op.A)) * cpi)}
		case OpFetch:
			first, last, ok := s.ic.Lines(op.A, int(op.B))
			if !ok { // Touch would do nothing
				continue
			}
			if s.guaranteedHit(ops, first, last) {
				st.hitLines += last - first + 1
				continue
			}
			lo = lowOp{kind: OpFetch, a: first, b: last}
		case OpDispatch:
			lo = lowOp{kind: OpDispatch, a: op.A, b: op.B, c: op.C}
		default:
			continue
		}
		if len(ops) == maxShapeOps {
			return loweredStep{}
		}
		ops = append(ops, lo)
	}
	if !st.classify(ops) {
		return loweredStep{}
	}
	return st
}

// classify gives st a fixed shape when its lowered ops match one,
// copying them into st's fields, and reports whether it did.
func (st *loweredStep) classify(ops []lowOp) bool {
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
	switch {
	case st.hitLines == 0 && kinds(OpWork, OpFetch, OpWork, OpFetch, OpDispatch):
		st.shape = shapeWFWFD
		st.f1, st.l1 = ops[3].a, ops[3].b
	case kinds(OpWork, OpFetch, OpWork, OpDispatch):
		st.shape = shapeWFWD
	case st.hitLines == 0 && kinds(OpWork, OpFetch, OpWork):
		st.shape = shapeWFW
	default:
		return false
	}
	st.w0, st.f0, st.l0, st.w1 = ops[0].cycles, ops[1].a, ops[1].b, ops[2].cycles
	if d := ops[len(ops)-1]; d.kind == OpDispatch {
		st.branch, st.hint, st.target = d.a, d.b, d.c
	}
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
