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
// each (position, fall-through or transfer) to sim's machine once (see
// cpu.Sim.LowerStep) and then applies one lowered step per executed VM
// instruction, with only the dispatch's hint and target read per
// instruction. The counters are bit-identical to driving the events one
// at a time, which Run still does for every step while sim.Sink is set
// (so recorded traces see each event), and for steps that quicken, run
// in shadow mode, halt or lower to no fixed shape.
func Run(proc Process, plan *Plan, sim *cpu.Sim, maxSteps uint64) (metrics.Counters, error) {
	code := proc.Code()
	sim.AddCodeBytes(plan.dynBytes)

	// Steps are lowered on first use: at[2*pos] locates pos's step on
	// a fall-through and at[2*pos+1] on a transfer, as an index into
	// lowered plus one, or 0 when not lowered yet. Recording needs
	// every event, so it lowers nothing.
	var at []uint32
	var lowered []cpu.Step
	if sim.Sink == nil {
		at = make([]uint32, 2*len(code))
		lowered = make([]cpu.Step, 0, len(code))
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
		sim.VMInst()

		to := ev.To
		inShadow := shadowEnd >= 0 && pos < shadowEnd
		dispatch, branch := plan.boundary(pos, ev.Kind, inShadow)
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
				st, _ := sim.LowerStep(plan.stepEvents(&buf, pos, dispatch, branch))
				lowered = append(lowered, st)
				at[k] = uint32(len(lowered))
			}
			applied = sim.ApplyStep(&lowered[at[k]-1], hint, target)
		}
		if !applied {
			if ev.Quickened {
				// The quickening execution runs the original (slow)
				// routine plus the one-time resolution work; the plan
				// is repointed at the quick code only after this
				// step's accounting, below.
				sim.Work(plan.QuickWorkAt(pos))
			}
			if inShadow {
				m := plan.isa.Meta(code[pos].Op)
				sim.Work(m.Work)
				sim.Fetch(plan.sharedAddr[pos], m.Bytes)
			} else {
				sim.Work(int(plan.workInstrs[pos]))
				sim.Fetch(plan.addr[pos], int(plan.workBytes[pos]))
			}
			switch {
			case dispatch:
				sim.Work(plan.dispatchWork)
				sim.Fetch(branch, plan.dispatchBytes)
				sim.Dispatch(branch, hint, target)
			case ev.Kind != EvHalt: // no dispatch after halting
				sim.Work(int(plan.seqWork[pos]))
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
			// Quickening repoints this position and may re-parse the
			// superinstructions around it, so every lowered step is
			// stale.
			plan.Quicken(pos, ev.NewOp)
			clear(at)
			lowered = lowered[:0]
		}
	}
	return sim.C, nil
}

// maxStepEvents is the most events stepEvents writes.
const maxStepEvents = 5

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

// stepEvents writes into buf, and returns, the events Run's per-event
// path drives for an instruction at pos outside shadow mode that
// neither quickened nor halted: its work and fetch, then the dispatch
// sequence through branch, or the kept ip increment when the boundary
// does not dispatch. The dispatch's hint and target are left zero:
// they depend on the destination, not on the step.
func (p *Plan) stepEvents(buf *[maxStepEvents]cpu.Op, pos int, dispatch bool, branch uint64) []cpu.Op {
	work := func(n int) cpu.Op { return cpu.Op{Kind: cpu.OpWork, A: uint64(n)} }
	ops := append(buf[:0], work(int(p.workInstrs[pos])),
		cpu.Op{Kind: cpu.OpFetch, A: p.addr[pos], B: uint64(p.workBytes[pos])})
	if !dispatch {
		return append(ops, work(int(p.seqWork[pos])))
	}
	return append(ops, work(p.dispatchWork),
		cpu.Op{Kind: cpu.OpFetch, A: branch, B: uint64(p.dispatchBytes)},
		cpu.Op{Kind: cpu.OpDispatch, A: branch})
}
