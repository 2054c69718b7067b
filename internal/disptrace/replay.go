package disptrace

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/steptok"
)

// Replay drives sim over the trace: every recorded event is applied
// with the same accounting as the cpu.Sim entry points the engine
// used while recording, in the same order, so the resulting counters
// — the float cycle counters included — are byte-identical to the
// direct simulation the trace was recorded from (on any machine
// model, since the stream is machine-independent; see cpu.Sink).
//
// The trace is already resident, so there is no decode to spread
// across goroutines: jobs is accepted for callers that size it and
// otherwise ignored.
//
// Replay appends to sim's existing counters like a direct run would;
// use a fresh sim for a fresh result. sim.Sink is ignored during
// replay (replaying must not re-record).
func Replay(t *Trace, sim *cpu.Sim, jobs int) error {
	return ReplayEach(context.Background(), t, []*cpu.Sim{sim})
}

// ReplayEach replays the trace into several simulators at once, one
// goroutine per simulator, each walking the same immutable step
// dictionary and token stream. This is how a grid that varies only the
// machine uses the cores the sequential predictor/I-cache state
// machines would otherwise leave idle. Each sim sees the exact event
// sequence a solo Replay delivers, so the per-sim counters stay
// byte-identical to direct simulation. When ctx carries an obs trace,
// the replay's wall time is attributed to its "apply" stage.
func ReplayEach(ctx context.Context, t *Trace, sims []*cpu.Sim) error {
	start := time.Now()
	switch len(sims) {
	case 0:
		return nil
	case 1:
		t.arena.apply(sims[0])
	default:
		var wg sync.WaitGroup
		for _, sim := range sims {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.arena.apply(sim)
			}()
		}
		wg.Wait()
	}
	for _, sim := range sims {
		// The engine credits dynamic code bytes before stepping and
		// counts instructions as it goes; both are integer-only, so
		// the totals suffice. Adding them directly keeps the sink
		// out of it.
		sim.C.CodeBytes += t.Header.CodeBytes
		sim.C.VMInstructions += t.Header.VMInstructions
	}
	if obs.FromContext(ctx) != nil {
		obs.Observe(ctx, "apply", time.Since(start))
	}
	return nil
}

// apply drives each step's dictionary entry through sim, reading the
// tokens directly. It never consults the sim's Sink and, on a sim that
// has replayed a dictionary as large before, allocates nothing.
func (a *Arena) apply(sim *cpu.Sim) { sim.ApplySteps(a.dict, a.toks) }

// ReplayMachine replays the trace on a fresh simulator for machine m
// and returns the counters.
func ReplayMachine(t *Trace, m cpu.Machine) (metrics.Counters, error) {
	sim := cpu.NewSim(m)
	if err := Replay(t, sim, 1); err != nil {
		return metrics.Counters{}, err
	}
	return sim.C, nil
}

// Verify checks the stream against the header's step count and
// totals and bounds its expanded op count (see checkTotals). Decode
// runs the same checks, so a decoded trace always passes, and the
// Writer derives its totals from the stream, so a recording passes but
// for the bound.
func (t *Trace) Verify() error {
	uses, err := t.arena.uses()
	if err != nil {
		return err
	}
	return t.arena.checkTotals(t.Header, uses)
}

// uses validates the token stream, which must hold exactly a.steps
// steps, and returns each step ID's use count.
func (a *Arena) uses() ([]uint64, error) {
	uses := make([]uint64, len(a.dict))
	n, err := steptok.Check(a.toks, len(a.dict), a.steps, uses)
	if err != nil {
		return nil, err
	}
	if n != a.steps {
		return nil, fmt.Errorf("%w: the tokens hold %d steps, the header %d", ErrStepCount, n, a.steps)
	}
	return uses, nil
}

// A trace's expanded op count — its replay work — may not exceed
// freeOps plus its dictionary ops plus maxStepOps per step. Recorded
// engines average at most 5 ops per step (work, fetches and one
// dispatch), so only a crafted trace reaches the bound: one long entry
// named by many steps, which would make replay cost the product of the
// entry's length and the step count. With the step count bounded by
// the recording's step bound (see readMeta), so is replay work.
const (
	freeOps    = 1 << 20
	maxStepOps = 64
)

// checkTotals verifies that the stream's event totals, computed from
// each entry's use count, equal the header's, and that the expanded
// op count stays within its bound (see freeOps). It costs
// O(dictionary ops), not O(expanded ops).
func (a *Arena) checkTotals(h Header, uses []uint64) error {
	limit := freeOps + maxStepOps*a.steps
	for _, e := range a.dict {
		limit += uint64(len(e))
	}
	var ops uint64
	for k, e := range a.dict {
		n := uint64(len(e))
		if n > 0 && uses[k] > (limit-ops)/n {
			return fmt.Errorf("disptrace: stream expands past %d ops (%d steps, %d-op entry %d used %d times)",
				limit, a.steps, n, k, uses[k])
		}
		ops += uses[k] * n
	}
	dispatches, fetches, work := a.totals(uses)
	if a.steps != h.VMInstructions || dispatches != h.Dispatches || fetches != h.Fetches || work != h.WorkInstrs {
		return fmt.Errorf("disptrace: stream totals (%d steps, %d dispatches, %d fetches, %d work) disagree with header (%d, %d, %d, %d)",
			a.steps, dispatches, fetches, work, h.VMInstructions, h.Dispatches, h.Fetches, h.WorkInstrs)
	}
	return nil
}

// totals returns the stream's dispatch and fetch events and its summed
// work amounts: each entry's times its use count.
func (a *Arena) totals(uses []uint64) (dispatches, fetches, work uint64) {
	for k, e := range a.dict {
		n := uses[k]
		for _, op := range e {
			switch op.Kind {
			case cpu.OpWork:
				work += n * op.A
			case cpu.OpFetch:
				fetches += n
			case cpu.OpDispatch:
				dispatches += n
			}
		}
	}
	return dispatches, fetches, work
}

// HashISA fingerprints a VM instruction set: the name, opcode count
// and every opcode's metadata. Trace keys include it so a trace
// recorded under one ISA revision is never replayed against another
// (the work/byte cost tables feed directly into the stream).
func HashISA(isa core.ISA) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", isa.Name(), isa.NumOps())
	for op := 0; op < isa.NumOps(); op++ {
		m := isa.Meta(uint32(op))
		fmt.Fprintf(h, "|%s,%v,%d,%d,%v,%v,%d,%d,%v,%v,%v,%v,%v",
			m.Name, m.HasArg, m.Work, m.Bytes, m.Relocatable,
			m.Quickable, m.QuickWork, m.QuickBytesMax,
			m.Branch, m.Call, m.Return, m.Indirect, m.Stop)
	}
	return h.Sum64()
}
