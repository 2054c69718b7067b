package disptrace_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/runner"
	"vmopt/internal/workload"
)

// residentCells are the cells of one pair, by machine, that left a
// half of the resident mode.
type residentCells struct {
	icache, btb []string
}

// paperGridPairs returns the (workload, variant) pairs of the paper
// grid: every ForthVariants and JavaVariants pair.
func paperGridPairs() []tracePair {
	var pairs []tracePair
	for _, w := range workload.Forth() {
		for _, v := range harness.ForthVariants() {
			pairs = append(pairs, tracePair{w, v})
		}
	}
	for _, w := range workload.Java() {
		for _, v := range harness.JavaVariants() {
			pairs = append(pairs, tracePair{w, v})
		}
	}
	return pairs
}

// TestPaperGridFitsMemoryBudget: the resident forms of all 126
// paper-grid traces at scalediv 10 — the set a serving pass over the
// grid loads — fit in a Cache's memory budget together, so a pass
// decodes each trace once. Successor-run tokens are what make them
// fit: the step-ID streams of format v5 took 132.1 MB.
func TestPaperGridFitsMemoryBudget(t *testing.T) {
	pairs := paperGridPairs()
	if len(pairs) != 126 {
		t.Fatalf("%d paper-grid pairs, want 126", len(pairs))
	}
	s := harness.NewTestSuite()
	s.ScaleDiv = 10
	type weight struct{ bytes, tokens, steps int64 }
	got, err := runner.Map(context.Background(), len(pairs), runner.Options{Jobs: 2},
		func(_ context.Context, i int) (weight, error) {
			tr, _, err := s.RecordTrace(pairs[i].w, pairs[i].v, cpu.Celeron800)
			if err != nil {
				return weight{}, err
			}
			a := tr.Arena()
			return weight{a.Bytes(), int64(a.Tokens()), int64(a.Insts())}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var sum weight
	for _, g := range got {
		sum.bytes += g.bytes
		sum.tokens += g.tokens
		sum.steps += g.steps
	}
	if sum.bytes > disptrace.MemoryBudget {
		t.Errorf("the paper grid's traces weigh %d bytes resident, over the %d-byte memory budget", sum.bytes, disptrace.MemoryBudget)
	}
	t.Logf("126 traces: %d bytes resident (budget %d), %d tokens for %d steps", sum.bytes, disptrace.MemoryBudget, sum.tokens, sum.steps)
}

// TestPaperGridResident pins how much of the real traffic the resident
// mode serves to the end, in direct simulation and in replay. A half of
// the mode stops at the first fetch or dispatch that would evict, so a
// cell leaves it exactly when its run evicts a line or a BTB entry, in
// either form. Of the 630 paper-grid cells at scalediv 10 (every
// ForthVariants and JavaVariants pair on every machine), one evicts an
// I-cache line: jack/static repl on celeron-800, which fetches 5 lines
// of one 4-way set. The BTB half runs on the four machines with a
// set-associative BTB (pentium-m predicts with a two-level table) and
// keeps to the end on 480 cells: every pair on the Pentium 4s and the
// Athlon, and 102 of the 126 on celeron-800, whose 512-entry BTB the
// 24 below overflow. So the fast path serves nearly every step, and the
// golden tests cover each way out of it.
func TestPaperGridResident(t *testing.T) {
	pairs := paperGridPairs()
	machines := cpu.Machines()
	if cells := len(pairs) * len(machines); cells != 630 {
		t.Fatalf("%d paper-grid cells, want 630", cells)
	}
	btbMachines := 0
	for _, m := range machines {
		if m.Predictor == cpu.PredictBTB {
			btbMachines++
		}
	}
	s := harness.NewTestSuite()
	// Each pair yields its direct cells and its replayed cells.
	got, err := runner.Map(context.Background(), len(pairs), runner.Options{Jobs: 2},
		func(_ context.Context, i int) ([2]residentCells, error) {
			p := pairs[i]
			var out [2]residentCells
			note := func(form int, m cpu.Machine, e cpu.Exits) {
				cell := fmt.Sprintf("%s/%s on %s", p.w.Name, p.v.Name, m.Name)
				if e.ICache > 0 {
					out[form].icache = append(out[form].icache, cell)
				}
				if e.BTB > 0 {
					out[form].btb = append(out[form].btb, cell)
				}
			}
			var tr *disptrace.Trace
			for k, m := range machines {
				sim := cpu.NewSim(m)
				var tw *disptrace.Writer
				if k == 0 {
					tw = disptrace.NewWriter(s.TraceKey(p.w, p.v).Header())
					sim.Sink = tw
				}
				if _, err := s.Simulate(p.w, p.v, sim); err != nil {
					return out, err
				}
				if k == 0 {
					tr = tw.Trace()
				}
				note(0, m, sim.ResidentExits())
			}
			for _, m := range machines {
				sim := cpu.NewSim(m)
				if err := disptrace.Replay(tr, sim, 1); err != nil {
					return out, err
				}
				note(1, m, sim.ResidentExits())
			}
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	wantICache := []string{"jack/static repl on celeron-800"}
	var wantBTB []string
	for _, pv := range []string{
		"bench-gc/static repl", "bench-gc/dynamic repl",
		"cross/static repl", "cross/dynamic repl",
		"brainless/static repl", "brainless/static both", "brainless/dynamic repl",
		"brew/static repl", "brew/static both", "brew/dynamic repl",
		"jack/static repl", "jack/dynamic repl", "jack/dynamic super",
		"mpeg/static repl",
		"compress/static repl",
		"javac/static repl", "javac/dynamic repl", "javac/across bb", "javac/with static super",
		"jess/static repl",
		"db/static repl", "db/dynamic repl",
		"mtrt/static repl", "mtrt/dynamic repl",
	} {
		wantBTB = append(wantBTB, pv+" on celeron-800")
	}
	for form, name := range []string{"direct simulation", "replay"} {
		var icache, btb []string
		for _, g := range got {
			icache = append(icache, g[form].icache...)
			btb = append(btb, g[form].btb...)
		}
		if !slices.Equal(icache, wantICache) {
			t.Errorf("%s: cells that left the I-cache half: %q, want %q", name, icache, wantICache)
		}
		if !slices.Equal(btb, wantBTB) {
			t.Errorf("%s: cells that left the BTB half: %q, want %q", name, btb, wantBTB)
		}
		if kept := len(pairs)*btbMachines - len(btb); kept != 480 {
			t.Errorf("%s: %d cells kept the BTB half to the end, want 480", name, kept)
		}
	}
}
