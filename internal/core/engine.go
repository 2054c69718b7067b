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
func Run(proc Process, plan *Plan, sim *cpu.Sim, maxSteps uint64) (metrics.Counters, error) {
	code := proc.Code()
	sim.AddCodeBytes(plan.dynBytes)
	dispatchWork := plan.dispatchWork
	dispatchBytes := plan.dispatchBytes

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

		if ev.Quickened {
			// The quickening execution runs the original (slow)
			// routine plus the one-time resolution work; the plan is
			// repointed at the quick code only after this step's
			// accounting, below.
			sim.Work(plan.QuickWorkAt(pos))
		}

		inShadow := shadowEnd >= 0 && pos < shadowEnd
		if inShadow {
			m := proc.ISA().Meta(code[pos].Op)
			sim.Work(m.Work)
			sim.Fetch(plan.sharedAddr[pos], m.Bytes)
		} else {
			sim.Work(int(plan.workInstrs[pos]))
			sim.Fetch(plan.addr[pos], int(plan.workBytes[pos]))
		}

		// Boundary handling.
		var branch uint64
		dispatch := false
		switch ev.Kind {
		case EvHalt:
			// No dispatch after halting.
		case EvFall:
			switch {
			case inShadow:
				// Non-replicated code dispatches on every boundary.
				dispatch = true
				branch = plan.sharedBr[pos]
			case plan.seqDispatch[pos]:
				dispatch = true
				branch = plan.seqBranch[pos]
			default:
				sim.Work(int(plan.seqWork[pos]))
			}
		default: // taken branch, call, return, computed transfer
			dispatch = true
			if inShadow {
				branch = plan.sharedBr[pos]
			} else {
				branch = plan.branchAddr[pos]
			}
		}

		if dispatch {
			to := ev.To
			target := plan.addr[to]
			// Entering the middle of a static superinstruction that
			// crosses a basic-block boundary: fall back to shared
			// code until the superinstruction ends (Figure 6).
			enterShadow := false
			if plan.sideEntry != nil && ev.Kind != EvFall && plan.sideEntry[to] {
				target = plan.sharedAddr[to]
				enterShadow = true
			}
			sim.Work(dispatchWork)
			sim.Fetch(branch, dispatchBytes)
			sim.Dispatch(branch, uint64(code[to].Op), target)
			if enterShadow {
				shadowEnd = int(plan.shadowUntil[to])
			} else if ev.Kind != EvFall {
				shadowEnd = -1
			}
		}
		if shadowEnd >= 0 && ev.To >= shadowEnd {
			shadowEnd = -1
		}
		if ev.Quickened {
			plan.Quicken(pos, ev.NewOp)
		}
	}
	return sim.C, nil
}
