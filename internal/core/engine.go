package core

import (
	"errors"
	"fmt"

	"vmopt/internal/cpu"
	"vmopt/internal/metrics"
)

// ErrStepLimit reports that Run stopped at its maxSteps budget before
// the process finished.
var ErrStepLimit = errors.New("core: VM step limit exceeded")

// Run executes proc to completion under plan on the simulated machine
// sim, and returns the accumulated counters. maxSteps bounds the
// number of executed VM instructions; reaching it returns an error
// wrapping ErrStepLimit.
//
// plan must have been built over proc.Code() (the live slice), so
// quickening stays coherent between the two.
//
// Run applies the paper's remedy to itself: it lowers the events of
// each (position, fall-through or transfer) to sim's machine once, into
// sim's table of steps (see cpu.Sim.AddStep), and then runs one lowered
// step per executed VM instruction, with only the dispatch's hint and
// target read per instruction. The steps run in sim's resident mode: a
// step that has run since the last sync (see cpu.Sim.Sync) and fetches
// no line and dispatches through no branch that could evict is warm,
// and Run applies it inline (cpu.Sim.Warm), skipping the I-cache model
// and predicting its dispatch from its branch's last target; any other
// goes through cpu.Sim.RunStep. The counters are bit-identical to
// driving the events one at a time, which Run still does, after a sync
// and with cpu.Sim.Apply, for steps that quicken, run in shadow mode,
// halt or lower to no fixed shape, and the I-cache and predictor state
// is too when Run returns.
//
// Recording lowers too when sim.Sink is a cpu.StepSink: each lowered
// step remembers the destination it last ran to and the step ID its
// events were interned under, so a repeat records just that ID, and a
// destination seen before is looked up instead of interned again. The
// IDs reach the Sink in batches. The steps Run does not lower reach it
// whole (cpu.Sink.RecordStep), as every step does for a Sink that is
// not a cpu.StepSink.
func Run(proc Process, plan *Plan, sim *cpu.Sim, maxSteps uint64) (metrics.Counters, error) {
	code := proc.Code()
	sim.AddCodeBytes(plan.dynBytes)

	// Steps are lowered on first use: at[2*pos] locates pos's step on
	// a fall-through and at[2*pos+1] on a transfer, as an index into
	// sim's table of steps plus one, or 0 when not lowered yet. A Sink
	// that is not a cpu.StepSink records every step whole, so then Run
	// lowers nothing.
	var at []uint32
	var rec *recorder
	if sim.Sink != nil {
		rec = &recorder{sink: sim.Sink, seen: make(map[uint64]uint32)}
		rec.steps, _ = sim.Sink.(cpu.StepSink)
		defer rec.flush()
	}
	if rec == nil || rec.steps != nil {
		at = make([]uint32, 2*len(code))
		sim.BeginSteps(len(code))
		defer sim.Sync()
	}
	var buf [maxStepEvents]cpu.Op

	// Shadow mode: executing the non-replicated remainder of a
	// static superinstruction entered through a side entry
	// (TWithStaticSuperAcross only).
	shadowEnd := -1

	steps := uint64(0)
	for !proc.Done() {
		if steps >= maxSteps {
			return sim.C, fmt.Errorf("%w: %d steps under %v", ErrStepLimit, maxSteps, plan.technique)
		}
		steps++
		pos := proc.PC()
		ev, err := proc.Step()
		if err != nil {
			return sim.C, err
		}

		to := ev.To
		inShadow := shadowEnd >= 0 && pos < shadowEnd
		dispatch, _ := plan.boundary(pos, ev.Kind, inShadow)
		// The dispatch's destination: entering the middle of a static
		// superinstruction that crosses a basic-block boundary falls
		// back to shared code until the superinstruction ends
		// (Figure 6).
		var hint, target uint64
		enterShadow := false
		if dispatch {
			hint, target = uint64(code[to].Op), plan.addr[to]
			if plan.sideEntry != nil && ev.Kind != EvFall && plan.sideEntry[to] {
				target = plan.sharedAddr[to]
				enterShadow = true
			}
		}

		applied := false
		if at != nil && !ev.Quickened && !inShadow && ev.Kind != EvHalt {
			k := 2 * pos
			if ev.Kind != EvFall {
				k++
			}
			if at[k] == 0 {
				at[k] = sim.AddStep(plan.stepEvents(&buf, pos, ev, false, 0, 0, 0)) + 1
				if rec != nil {
					rec.memo = append(rec.memo, stepMemo{})
				}
			}
			i := at[k] - 1
			if st := sim.Warm(i); st != nil {
				sim.Predict(st, target)
				applied = true
			} else {
				applied = sim.RunStep(i, hint, target)
			}
			if applied {
				sim.C.VMInstructions++
				if rec != nil {
					if m := rec.memo[i]; m.to == uint32(to)+1 && rec.n < len(rec.ids) {
						rec.ids[rec.n] = m.id
						rec.n++
					} else {
						rec.step(plan, i, pos, ev, hint, target)
					}
				}
			}
		}
		if !applied {
			if at != nil {
				sim.Sync()
			}
			ops := plan.stepEvents(&buf, pos, ev, inShadow, code[pos].Op, hint, target)
			sim.Apply(ops)
			sim.C.VMInstructions++
			if rec != nil {
				rec.record(ops)
			}
		}

		if enterShadow {
			shadowEnd = int(plan.shadowUntil[to])
		} else if dispatch && ev.Kind != EvFall {
			shadowEnd = -1
		}
		if shadowEnd >= 0 && to >= shadowEnd {
			shadowEnd = -1
		}
		if ev.Quickened {
			// Quickening repoints this position, only after this
			// step's accounting, and may re-parse the
			// superinstructions around it, so every lowered step is
			// stale.
			plan.Quicken(pos, ev.NewOp)
			clear(at)
			sim.BeginSteps(len(code))
			if rec != nil {
				rec.reset()
			}
		}
	}
	return sim.C, nil
}

// recorder records the steps of a run into sim.Sink, and the lowered
// ones by ID when the Sink is also a cpu.StepSink (steps). memo[i] is
// lowered step i's ID for the destination it last ran to, and seen
// holds the ID of every (lowered step, destination) pair run so far: a
// return moves between its callers, and seen spares it a re-intern on
// each move. ids[:n] are IDs not yet handed to steps.
type recorder struct {
	sink  cpu.Sink
	steps cpu.StepSink
	memo  []stepMemo
	seen  map[uint64]uint32
	ids   [256]uint32
	n     int
	buf   [maxStepEvents]cpu.Op
}

// stepMemo is a lowered step's last destination plus one (0 before
// its first run) and the ID its events were interned under for it.
type stepMemo struct{ to, id uint32 }

// step records one run of lowered step i, at pos, ending in ev, when
// the run's inline fast path cannot: the step's memo is for another
// destination, or the batch is full. The slot and its destination fix
// the step's events, the dispatch's hint and target included.
func (r *recorder) step(plan *Plan, i uint32, pos int, ev Event, hint, target uint64) {
	if m := &r.memo[i]; m.to != uint32(ev.To)+1 {
		key := uint64(i)<<32 | uint64(ev.To)
		id, ok := r.seen[key]
		if !ok {
			id = r.steps.InternStep(plan.stepEvents(&r.buf, pos, ev, false, 0, hint, target))
			r.seen[key] = id
		}
		*m = stepMemo{to: uint32(ev.To) + 1, id: id}
	}
	if r.n == len(r.ids) {
		r.flush()
	}
	r.ids[r.n] = r.memo[i].id
	r.n++
}

// flush hands the pending IDs to the sink.
func (r *recorder) flush() {
	if r.n > 0 {
		r.steps.RecordSteps(r.ids[:r.n])
		r.n = 0
	}
}

// record hands the sink a step Run did not lower, after the pending
// IDs. The events go through r's buffer, so Run's stays on the stack.
func (r *recorder) record(ops []cpu.Op) {
	r.flush()
	r.sink.RecordStep(append(r.buf[:0], ops...))
}

// reset forgets every memoised ID: the lowered steps they belong to
// are stale.
func (r *recorder) reset() {
	r.memo = r.memo[:0]
	clear(r.seen)
}

// maxStepEvents is the most events stepEvents writes.
const maxStepEvents = 6

// boundary reports whether the boundary after the instruction at pos,
// which ended in kind, dispatches, and through which branch.
func (p *Plan) boundary(pos int, kind EventKind, inShadow bool) (dispatch bool, branch uint64) {
	switch {
	case kind == EvHalt:
		return false, 0
	case inShadow:
		// Non-replicated code dispatches on every boundary.
		return true, p.sharedBr[pos]
	case kind != EvFall: // taken branch, call, return, computed transfer
		return true, p.branchAddr[pos]
	case p.seqDispatch[pos]:
		return true, p.seqBranch[pos]
	}
	return false, 0
}

// stepEvents writes into buf, and returns, the events of the
// instruction at pos, which ran op and ended in ev: the one-time
// quickening work when it quickened (it runs the original, slow
// routine); its work and fetch, or in shadow mode those of op's
// non-replicated routine; then the dispatch sequence, predicting hint
// and jumping to target, the kept ip increment when the boundary does
// not dispatch, or nothing after a halt.
func (p *Plan) stepEvents(buf *[maxStepEvents]cpu.Op, pos int, ev Event, inShadow bool, op uint32, hint, target uint64) []cpu.Op {
	work := func(n int) cpu.Op { return cpu.Op{Kind: cpu.OpWork, A: uint64(n)} }
	ops := buf[:0]
	if ev.Quickened {
		ops = append(ops, work(p.QuickWorkAt(pos)))
	}
	if inShadow {
		m := p.isa.Meta(op)
		ops = append(ops, work(m.Work), cpu.Op{Kind: cpu.OpFetch, A: p.sharedAddr[pos], B: uint64(m.Bytes)})
	} else {
		ops = append(ops, work(int(p.workInstrs[pos])),
			cpu.Op{Kind: cpu.OpFetch, A: p.addr[pos], B: uint64(p.workBytes[pos])})
	}
	switch dispatch, branch := p.boundary(pos, ev.Kind, inShadow); {
	case dispatch:
		return append(ops, work(p.dispatchWork),
			cpu.Op{Kind: cpu.OpFetch, A: branch, B: uint64(p.dispatchBytes)},
			cpu.Op{Kind: cpu.OpDispatch, A: branch, B: hint, C: target})
	case ev.Kind != EvHalt:
		return append(ops, work(int(p.seqWork[pos])))
	}
	return ops
}
