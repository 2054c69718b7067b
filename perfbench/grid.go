package main

import (
	"context"
	"fmt"
	"time"

	"vmopt/internal/cpu"
	"vmopt/internal/harness"
	"vmopt/internal/obs"
	"vmopt/internal/workload"
)

// experiment is one entry of `vmbench -exp all`, run on a suite.
type experiment struct {
	name string
	run  func(*harness.Suite) error
}

// gridExperiments lists every experiment `vmbench -exp all` renders,
// in paper order, as calls into the harness.
func gridExperiments() []experiment {
	pure := func(f func()) func(*harness.Suite) error {
		return func(*harness.Suite) error { f(); return nil }
	}
	return []experiment{
		{"table1", pure(func() { harness.TableI() })},
		{"table2", pure(func() { harness.TableII() })},
		{"table3", pure(func() { harness.TableIII() })},
		{"table4", pure(func() { harness.TableIV() })},
		{"table5", func(s *harness.Suite) error { _, err := s.TableV(); return err }},
		{"table6", pure(func() { harness.TableVI() })},
		{"table7", pure(func() { harness.TableVII() })},
		{"table8", func(s *harness.Suite) error { _, err := s.TableVIII(); return err }},
		{"table9", func(s *harness.Suite) error { _, _, err := s.TableIX(); return err }},
		{"table10", func(s *harness.Suite) error { _, _, err := s.TableX(); return err }},
		{"fig7", func(s *harness.Suite) error { _, _, err := s.Figure7(); return err }},
		{"fig8", func(s *harness.Suite) error { _, _, err := s.Figure8(); return err }},
		{"fig9", func(s *harness.Suite) error { _, _, err := s.Figure9(); return err }},
		{"fig10", func(s *harness.Suite) error { _, _, err := s.Figure10(); return err }},
		{"fig11", func(s *harness.Suite) error { _, _, err := s.Figure11(); return err }},
		{"fig12", func(s *harness.Suite) error { _, _, err := s.Figure12(); return err }},
		{"fig13", func(s *harness.Suite) error { _, _, err := s.Figure13(); return err }},
		{"fig14", func(s *harness.Suite) error { _, _, err := s.Figure14(); return err }},
		{"fig15", func(s *harness.Suite) error { _, _, err := s.Figure15(); return err }},
		{"fig16", func(s *harness.Suite) error { _, _, err := s.Figure16(); return err }},
		{"rates", func(s *harness.Suite) error { _, _, _, err := s.MispredictRates(); return err }},
		{"fractions", func(s *harness.Suite) error { _, _, _, err := s.BranchFractions(); return err }},
		{"predictors", func(s *harness.Suite) error { _, _, err := s.PredictorComparison(); return err }},
		{"parse", func(s *harness.Suite) error { _, _, err := s.GreedyVsOptimal(); return err }},
		{"selection", func(s *harness.Suite) error { _, _, err := s.RoundRobinVsRandom(); return err }},
		{"btbsize", func(s *harness.Suite) error { _, _, err := s.BTBSizeSweep(mustWorkload("gray")); return err }},
		{"penalty", func(s *harness.Suite) error { _, _, err := s.PenaltySweep(); return err }},
		{"caseblock", func(s *harness.Suite) error { _, _, err := s.CaseBlockExperiment(); return err }},
		{"lengths", func(s *harness.Suite) error { _, _, err := s.SuperLengths(); return err }},
		{"hardware", func(s *harness.Suite) error { _, _, err := s.HardwareVsSoftware(); return err }},
		{"history", func(s *harness.Suite) error { _, _, err := s.TwoLevelHistorySweep(mustWorkload("gray")); return err }},
	}
}

// paperMachines are the machine models of the paper grid.
func paperMachines() []cpu.Machine { return cpu.Machines() }

// pair is one (workload, variant) of the paper grid: the unit the
// trace cache records.
type pair struct {
	w *workload.Workload
	v harness.Variant
}

// paperPairs lists every (workload, variant) of the paper grid: each
// Forth workload under the Gforth variants and each Java workload
// under the JVM variants.
func paperPairs() []pair {
	var ps []pair
	for _, w := range workload.Forth() {
		for _, v := range harness.ForthVariants() {
			ps = append(ps, pair{w, v})
		}
	}
	for _, w := range workload.Java() {
		for _, v := range harness.JavaVariants() {
			ps = append(ps, pair{w, v})
		}
	}
	return ps
}

// paperGridSpecs is every paper-grid pair on each of machines.
func paperGridSpecs(machines []cpu.Machine) []harness.RunSpec {
	var specs []harness.RunSpec
	for _, p := range paperPairs() {
		for _, m := range machines {
			specs = append(specs, harness.RunSpec{W: p.w, V: p.v, M: m})
		}
	}
	return specs
}

// gridSetupReps is how many times grid-direct sets up. One set-up
// takes about 2 ms; the median of 200 is steady within a run, and 1000
// were no steadier from run to run, where the host's speed during the
// half second of set-up sets the figure.
const gridSetupReps = 200

// runGrid is the grid-direct workload: fresh suites regenerate every
// experiment by direct simulation, once per pass, until the measured
// time is used up. Each experiment runs under its own request trace,
// whose "sim" spans give every simulated cell's latency.
func runGrid(e *env) error {
	exps := gridExperiments()
	order := newRand(e.seed, 0x67726964).Perm(len(exps))

	// A direct simulation needs no set-up the passes could reuse:
	// workload.NewProcess keeps no cache, so every simulated cell
	// builds its guest program again. setup_s is therefore the cost of
	// that guest front end on its own: compiling every Forth program
	// and assembling every JVM program at the grid's scale, once per
	// set-up. Its result is discarded.
	e.setPhase("setup")
	if err := timeSetup(e, gridSetupReps, func(int) error { return buildPrograms() }, func(int) {}); err != nil {
		return err
	}

	e.setPhase("measure")
	lat := newLatencies()
	var walls []float64
	var heap heapSampler
	cells := 0
	var cpuUsed time.Duration
	gc0 := readGC()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < e.seconds; pass++ {
		s := newGridSuite()
		heap.start()
		t0, cpu0 := time.Now(), cpuTime()
		for _, i := range order {
			if err := runTimed(s, exps[i], lat, pass); err != nil {
				return fmt.Errorf("pass %d: %w", pass, err)
			}
		}
		cpuUsed += cpuTime() - cpu0
		walls = append(walls, time.Since(t0).Seconds())
		heap.stop()
		runs := s.Snapshot()
		if len(runs) != e.ref.gridCells {
			e.op(fmt.Errorf("pass %d simulated %d cells, the reference grid has %d", pass, len(runs), e.ref.gridCells))
		}
		for _, r := range runs {
			e.op(e.ref.check(r))
		}
		cells += len(runs)
	}
	if e.trace {
		e.setGC(gc0)
	}

	sum := summarize(lat.windows("sim"), tailPercentile(e.ref.gridCells))
	e.set("wall_s", median(walls))
	e.set("p50_ms", sum.P50)
	e.set("tail_ms", sum.Tail)
	e.set("cpu_ms_per_op", float64(cpuUsed)/float64(time.Millisecond)/float64(cells))
	e.set("heap_mb", heap.mb())
	note(e, "cell latency p%g over %d cells in %d passes", sum.TailPct, sum.N, len(walls))
	if e.trace {
		e.set("bench.traced_wall_s", median(walls))
		e.setPhase("layers")
		return probeEngine(e)
	}
	return nil
}

// runTimed runs one experiment under a fresh request trace and adds
// the latency of each cell it simulated.
func runTimed(s *harness.Suite, ex experiment, lat *latencies, pass int) error {
	before := s.ResultCount()
	ctx, tr := obs.NewTrace(context.Background(), "grid", ex.name)
	s.Ctx = ctx
	err := ex.run(s)
	s.Ctx = nil
	tr.Finish(200, time.Since(tr.Start))
	if err != nil {
		return fmt.Errorf("%s: %w", ex.name, err)
	}
	rec := obs.NewRecorder(1, 1)
	rec.Record(tr)
	n := 0
	for _, sp := range rec.Snapshot().Recent[0].Spans {
		if sp.Name == "sim" {
			lat.add("sim", pass, time.Duration(sp.DurMS*float64(time.Millisecond)))
			n++
		}
	}
	if want := s.ResultCount() - before; n != want {
		return fmt.Errorf("%s: %d cell spans for %d simulated cells", ex.name, n, want)
	}
	return nil
}

// buildPrograms constructs every workload's guest process at the
// benchmark scale.
func buildPrograms() error {
	for _, w := range append(workload.Forth(), workload.Java()...) {
		if _, _, err := w.NewProcess(harness.ScaleAt(w, scaleDiv)); err != nil {
			return fmt.Errorf("building %s: %w", w.Name, err)
		}
	}
	return nil
}
