package cpu

import (
	"cmp"
	"math"
	"slices"

	"vmopt/internal/btb"
)

// The resident mode. A BTB predicts that a branch jumps to the target
// it jumped to last time (paper Section 2.2); while no branch can be
// evicted, a set-associative BTB does exactly that. And while no line
// can be evicted, an I-cache misses only on each line's first fetch.
// So while a run evicts nothing, neither structure needs its model per
// step: a step that has run once (is warm) hits on every line, and its
// dispatch is predicted right exactly when its branch's last target is
// the target.
//
// RunStep runs a step's first run in a span in full, checking first
// that no line it fetches and no branch it dispatches through could
// evict, and stamps each run with a clock. Warm and RunStep run a warm
// step from counter deltas, cycle addends, the I-cache access count and
// a dense table of last targets. Sync, at the end of a run and before
// any per-event call, replays what the skipped work would have left:
// with nothing evicted, a set of either structure holds the entries
// touched in the span by their last touch, most recent first, then the
// others in their earlier order. So promoting each stepped run's lines
// and branch once more, in the order of the steps' last runs, gives
// every entry its rank, and the branch its last target.
//
// The mode has two halves. The I-cache half skips the I-cache model on
// warm steps; the BTB half, on a set-associative BTB only, predicts
// from the table of last targets. The first fetch or dispatch that
// would evict stops its half for the rest of the table's life (until
// BeginSteps): the half's state is restored as Sync restores it, and
// its structure is modelled in full from then on.

// resident is the state of a sim's resident mode.
type resident struct {
	// icache and btb report whether each half of the mode is on.
	icache, btb bool
	// clock stamps each step run in the mode (Step.use) and each
	// branch's first dispatch in a span (seen). since is the clock
	// when the current span began: a step or branch stamped above it
	// has run in the span. warm is since while both halves are on, and
	// the largest stamp otherwise, so that no step is warm for Warm.
	clock, since, warm uint64
	// used lists the steps run in the span, in no order.
	used []uint32
	// sa is the sim's predictor when it is a set-associative BTB.
	sa *btb.SetAssoc
	// index maps a BTB key (see btb.SetAssoc.Key) to its branch index.
	// targets[i] is branch i's last target and seen[i] stamps its
	// first dispatch in the span.
	index         map[uint64]uint32
	targets, seen []uint64
	exits         Exits
}

// Exits counts the halves of the resident mode that stopped at a fetch
// or a dispatch that would evict, since the sim was built or last
// Reset.
type Exits struct {
	// ICache counts the fetches that stopped the I-cache half.
	ICache uint64
	// BTB counts the dispatches that stopped the BTB half.
	BTB uint64
}

// ResidentExits returns the sim's resident-mode exit counts.
func (s *Sim) ResidentExits() Exits { return s.res.exits }

// reset begins a new span without restoring anything, for a sim whose
// I-cache and predictor were just cleared, and zeroes the exit counts.
func (r *resident) reset() {
	r.used = r.used[:0]
	r.since = r.clock
	r.setWarm()
	r.exits = Exits{}
}

// setWarm derives warm from the halves and since.
func (r *resident) setWarm() {
	r.warm = r.since
	if !r.icache || !r.btb {
		r.warm = math.MaxUint64
	}
}

// BeginSteps empties the sim's table of lowered steps, keeping room
// for n, and starts the resident mode on it: the I-cache half, and the
// BTB half on a set-associative BTB. A run that lowers its steps anew,
// after a quickening say, begins again. It syncs the mode first (see
// Sync).
func (s *Sim) BeginSteps(n int) {
	s.Sync()
	s.steps = slices.Grow(s.steps[:0], n)
	r := &s.res
	r.icache, r.btb = true, r.sa != nil
	r.setWarm()
	if r.sa != nil {
		if r.index == nil {
			r.index = make(map[uint64]uint32)
		}
		clear(r.index)
	}
	r.targets, r.seen = r.targets[:0], r.seen[:0]
}

// presize makes room in the mode's scratch for a table of n steps, so
// that a fresh sim appends to it without growing it. ApplySteps, which
// knows its table's size, calls it before BeginSteps.
func (r *resident) presize(n int) {
	r.used = slices.Grow(r.used, n)
	if r.sa != nil {
		if r.index == nil {
			r.index = make(map[uint64]uint32, n)
		}
		r.targets, r.seen = slices.Grow(r.targets, n), slices.Grow(r.seen, n)
	}
}

// AddStep lowers one VM instruction's events for the sim's machine
// into its table of steps (see lowerStep) and returns the step's index
// there. A dispatching step on a set-associative BTB gets the index of
// its branch's BTB entry among the table's branches.
func (s *Sim) AddStep(ops []Op) uint32 {
	st, _ := s.lowerStep(ops)
	if r := &s.res; r.sa != nil && st.shape == shapeWFWFD {
		key := r.sa.Key(st.branch)
		bi, ok := r.index[key]
		if !ok {
			bi = uint32(len(r.targets))
			r.index[key] = bi
			r.targets = append(r.targets, 0)
			r.seen = append(r.seen, 0)
		}
		st.bi = bi
	}
	s.steps = append(s.steps, st)
	return uint32(len(s.steps) - 1)
}

// Warm runs step k of the table when it is warm: both halves of the
// resident mode are on and the step has run in the current span. It
// applies the step's counter deltas, its cycle addends in RunStep's
// order and its I-cache accesses, and returns the step, whose dispatch
// the caller must then predict with Predict before it runs another.
// For a step that is not warm it changes nothing and returns nil; such
// a step goes through RunStep. Warm and Predict are small enough to
// inline into a caller's loop.
func (s *Sim) Warm(k uint32) *Step {
	st := &s.steps[k]
	if st.use <= s.res.warm {
		return nil
	}
	s.res.clock++
	st.use = s.res.clock
	c := &s.C
	c.Instructions += uint64(st.instructions)
	// RunStep's two additions in its order, with one store.
	c.Cycles = c.Cycles + st.w0 + st.w1
	s.ic.Accesses += uint64(st.lines)
	return st
}

// Predict predicts the dispatch of st, a step Warm returned, jumping
// to target, from its branch's last target; a step without a dispatch
// predicts nothing.
func (s *Sim) Predict(st *Step, target uint64) {
	if st.shape == shapeWFW {
		return
	}
	c := &s.C
	c.Dispatches++
	c.IndirectBranches++
	if t := &s.res.targets[st.bi]; *t != target {
		*t = target
		c.Mispredicted++
		c.Cycles += s.Machine.MispredictPenalty
	}
}

// RunStep runs step k of the table, its dispatch (if it has one)
// predicting hint and jumping to target, and reports whether it did: a
// step of no fixed shape applies nothing and returns false, and must
// go through the per-event calls or Apply, after a Sync.
//
// In the resident mode, a step's first run in a span fetches its lines
// through the I-cache model, up to a line that would evict, where the
// I-cache half stops; later runs add only its line count to the
// accesses. While the BTB half is on, a branch's first dispatch in the
// span accesses the BTB, unless that would evict, where the BTB half
// stops, and later ones are predicted from its last target. With both
// halves off every run goes through the I-cache model and the
// predictor. The counters end bit-identical to the per-event calls the
// step was lowered from, and the I-cache and predictor state too once
// synced; per-event calls and Apply on the sim must wait for a Sync.
func (s *Sim) RunStep(k uint32, hint, target uint64) bool {
	st := &s.steps[k]
	r := &s.res
	if st.shape == shapeGeneric {
		return false
	}
	cold := st.use <= r.since
	r.clock++
	c := &s.C
	c.Instructions += uint64(st.instructions)
	c.Cycles += st.w0
	if r.icache && !cold {
		c.Cycles += st.w1
		s.ic.Accesses += uint64(st.lines)
	} else {
		s.fetch(st, st.f0, st.span0, false)
		c.Cycles += st.w1
		if st.shape == shapeWFWFD {
			s.fetch(st, st.f1, st.span1, true)
		}
	}
	if st.shape != shapeWFW {
		c.Dispatches++
		if r.btb {
			s.predict(st, hint, target)
		} else {
			s.Indirect(st.branch, hint, target)
		}
	}
	st.use = r.clock
	if cold && (r.icache || r.btb) {
		r.used = append(r.used, k)
	}
	return true
}

// fetch fetches lines first..first+span of step st and charges their
// misses. While the I-cache half is on it fetches only up to a line
// that would evict, and there stops the half: it restores the LRU
// order the span's steps would have left (see restore), promotes the
// lines st has fetched so far, f0's before f1's (second), and fetches
// the rest in full.
func (s *Sim) fetch(st *Step, first uint64, span uint8, second bool) {
	last := first + uint64(span)
	if !s.res.icache {
		if span != 0 || !s.ic.HitMRU(first) {
			s.chargeMisses(s.ic.TouchLines(first, last))
		}
		return
	}
	misses, next := s.ic.TouchNoEvict(first, last)
	if next <= last {
		s.res.exits.ICache++
		s.leave(true, false)
		if second {
			s.ic.Promote(st.f0, st.f0+uint64(st.span0))
		}
		if next > first {
			s.ic.Promote(first, next-1)
		}
		misses += s.ic.TouchLines(next, last)
	}
	s.chargeMisses(misses)
}

// predict is Indirect for step st's dispatch while the BTB half is on.
// A branch's first dispatch in the span accesses the BTB when that
// evicts nothing; later ones compare with its last target. A dispatch
// that would evict stops the half (see leave) and goes through
// Indirect.
func (s *Sim) predict(st *Step, hint, target uint64) {
	r := &s.res
	var ok bool
	switch {
	case r.seen[st.bi] > r.since:
		ok = r.targets[st.bi] == target
	case r.sa.Fits(st.branch):
		ok = r.sa.Access(st.branch, hint, target)
		r.seen[st.bi] = r.clock
	default:
		r.exits.BTB++
		s.leave(false, true)
		s.Indirect(st.branch, hint, target)
		return
	}
	r.targets[st.bi] = target
	c := &s.C
	c.IndirectBranches++
	if !ok {
		c.Mispredicted++
		c.Cycles += s.Machine.MispredictPenalty
	}
}

// leave stops the I-cache half, the BTB half or both, restoring the
// state of each from the span's steps.
func (s *Sim) leave(icache, btb bool) {
	r := &s.res
	s.restore(icache, btb)
	r.icache = r.icache && !icache
	r.btb = r.btb && !btb
	if !r.icache && !r.btb {
		r.used = r.used[:0]
	}
	r.setWarm()
}

// Sync brings the I-cache and the predictor up to date with every step
// run in the current span of the resident mode, and begins a new span,
// in which each step's first run is cold again. Per-event calls and
// Apply may follow.
func (s *Sim) Sync() {
	r := &s.res
	if len(r.used) > 0 {
		s.restore(r.icache, r.btb)
		r.used = r.used[:0]
	}
	r.since = r.clock
	r.setWarm()
}

// restore replays on the I-cache (icache) or the BTB (btb), in the
// order of the last runs of the span's steps, what the work the mode
// skipped would have left: each step's lines promoted, f0's then f1's
// as it fetched them, and its branch's entry promoted with the
// branch's last target.
func (s *Sim) restore(icache, btb bool) {
	r := &s.res
	steps := s.steps
	slices.SortFunc(r.used, func(a, b uint32) int { return cmp.Compare(steps[a].use, steps[b].use) })
	for _, k := range r.used {
		st := &steps[k]
		if icache {
			s.ic.Promote(st.f0, st.f0+uint64(st.span0))
			if st.shape == shapeWFWFD {
				s.ic.Promote(st.f1, st.f1+uint64(st.span1))
			}
		}
		if btb && st.shape != shapeWFW {
			r.sa.Promote(st.branch, r.targets[st.bi])
		}
	}
}
