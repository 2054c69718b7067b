package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/workload"
)

// Which workloads set a per-layer metric.
var (
	grid   = []string{"grid-direct"}
	replay = []string{"serve-replay"}
	both   = []string{"grid-direct", "serve-replay"}
)

// perLayer lists the metrics of a traced run, with units and the
// workloads that measure them. Every traced run reports all of them;
// a layer a workload does not exercise reads 0 there (NOTES.md says
// which workload moves which metric).
var perLayer = []struct {
	name, unit string
	in         []string
}{
	{"forthvm.step_ns", "ns", grid},
	{"jvm.step_ns", "ns", grid},
	{"core.train_ms", "ms", grid},
	{"core.build_plan_ms", "ms", grid},
	{"core.run_ns_per_inst", "ns", grid},
	{"core.engine_self_ns_per_inst", "ns", grid},
	{"cpu.apply_ns_per_event", "ns", both},
	{"cpu.events_ns_per_inst", "ns", grid},
	{"btb.access_ns", "ns", both},
	{"icache.touch_ns", "ns", both},
	{"disptrace.record_ms", "ms", replay},
	{"disptrace.encode_ms", "ms", replay},
	{"disptrace.cache_write_ms", "ms", replay},
	{"disptrace.load_ms", "ms", replay},
	{"disptrace.decode_ns_per_event", "ns", replay},
	{"disptrace.replay_ns_per_event", "ns", replay},
	{"disptrace.compile_ms", "ms", replay},
	{"disptrace.compile_alloc_mb", "MB", replay},
	{"disptrace.replay_compiled_ns_per_event", "ns", replay},
	{"disptrace.diff_ms", "ms", replay},
	{"compiled.builds", "count", replay},
	{"compiled.hits", "count", replay},
	{"compiled.evictions", "count", replay},
	{"compiled.hits_per_build", "ratio", replay},
	{"serve.lru_hit_ratio", "ratio", replay},
	{"serve.coalesced", "count", replay},
	{"serve.rejected", "count", replay},
	{"serve.parse_ms", "ms", replay},
	{"serve.queue_ms", "ms", replay},
	{"serve.flight_ms", "ms", replay},
	{"serve.trace_load_ms", "ms", replay},
	{"serve.decode_ms", "ms", replay},
	{"serve.apply_ms", "ms", replay},
	{"serve.compiled_ms", "ms", replay},
	{"serve.diff_ms", "ms", replay},
	{"serve.encode_ms", "ms", replay},
	{"serve.sweep_p50_ms", "ms", replay},
	{"serve.sweep_tail_ms", "ms", replay},
	{"serve.diff_p50_ms", "ms", replay},
	{"serve.diff_tail_ms", "ms", replay},
	{"serve.traces_p50_ms", "ms", replay},
	{"serve.traces_tail_ms", "ms", replay},
	{"go.gc_cycles", "count", both},
	{"go.gc_pause_ms", "ms", both},
	{"go.alloc_mb", "MB", both},
	{"bench.traced_wall_s", "s", both},
}

// probeReps is how many times each layer probe repeats; the median is
// reported.
const probeReps = 5

// probeWorkloads are the cells the layer probes run: gray is the
// canonical Forth stream, db the Java one.
const (
	probeForth = "gray"
	probeJava  = "db"
)

func mustWorkload(name string) *workload.Workload {
	w, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// timed runs fn probeReps times and returns the median duration.
func timed(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func perUnit(d time.Duration, n int) float64 { return float64(d) / float64(n) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeEngine measures the layers direct simulation is made of, on
// the probe cells: the guest VMs' Step loops with no simulator,
// training, plan building, the engine's Run, and the simulator fed the
// recorded event streams. Each timed region covers only the layer
// call; building the guest program is outside it.
func probeEngine(e *env) error {
	forth, java := mustWorkload(probeForth), mustWorkload(probeJava)
	stepNs := map[string]float64{}
	for _, w := range []*workload.Workload{forth, java} {
		var ds []float64
		for i := 0; i < probeReps; i++ {
			proc, _, err := w.NewProcess(harness.ScaleAt(w, scaleDiv))
			if err != nil {
				return err
			}
			t0 := time.Now()
			n := 0
			for !proc.Done() {
				if _, err := proc.Step(); err != nil {
					return fmt.Errorf("%s step %d: %w", w.Name, n, err)
				}
				n++
			}
			ds = append(ds, perUnit(time.Since(t0), n))
		}
		stepNs[w.Lang] = median(ds)
	}
	e.set("forthvm.step_ns", stepNs["forth"])
	e.set("jvm.step_ns", stepNs["jvm"])

	d, err := timed(func() error {
		s := newGridSuite()
		if _, err := s.TrainForth(400, 0); err != nil {
			return err
		}
		_, err := s.TrainJavaExcept("compress", 400, 0)
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.train_ms", ms(d))

	m := paperMachines()[0]
	var plans, runs []float64
	var insts uint64
	for i := 0; i < probeReps; i++ {
		proc, leaders, err := forth.NewProcess(harness.ScaleAt(forth, scaleDiv))
		if err != nil {
			return err
		}
		t0 := time.Now()
		plan, err := core.BuildPlan(proc.Code(), forth.ISA(), core.Config{Technique: core.TPlain, ExtraLeaders: leaders})
		plans = append(plans, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t1 := time.Now()
		c, err := core.Run(proc, plan, cpu.NewSim(m), harness.NewSuite().MaxSteps)
		d := time.Since(t1)
		if err != nil {
			return err
		}
		insts = c.VMInstructions
		runs = append(runs, perUnit(d, int(insts)))
	}
	e.set("core.build_plan_ms", median(plans))
	runNs := median(runs)
	e.set("core.run_ns_per_inst", runNs)

	v, err := harness.VariantByName(forth, "plain")
	if err != nil {
		return err
	}
	tr, _, err := newGridSuite().RecordTrace(forth, v, m)
	if err != nil {
		return err
	}
	ops, err := traceOps(tr, nil)
	if err != nil {
		return err
	}
	if err := probeSim(e, ops, m); err != nil {
		return err
	}
	// The engine drives the simulator one event at a time, not through
	// Apply, so its own cost is measured against that entry point.
	var evs []float64
	for i := 0; i < probeReps; i++ {
		sim := cpu.NewSim(m)
		t0 := time.Now()
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case cpu.OpWork:
				sim.Work(int(op.A))
			case cpu.OpFetch:
				sim.Fetch(op.A, int(op.B))
			case cpu.OpDispatch:
				sim.Dispatch(op.A, op.B, op.C)
			}
		}
		evs = append(evs, perUnit(time.Since(t0), int(insts)))
	}
	e.set("cpu.events_ns_per_inst", median(evs))
	e.set("core.engine_self_ns_per_inst", runNs-stepNs["forth"]-median(evs))
	note(e, "probe cell %s/plain: %d VM instructions, %d events", forth.Name, insts, len(ops))
	return nil
}

// traceOps decodes a whole trace into one op slice, reusing dst's
// storage.
func traceOps(t *disptrace.Trace, dst []cpu.Op) ([]cpu.Op, error) {
	c := disptrace.NewCursor(t)
	ops := dst[:0]
	for ok := true; ok; {
		ops, ok = c.NextBatch(ops)
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	return ops, nil
}

// probeSim feeds a recorded event stream to the simulator, and its
// dispatches and fetches to the predictor and the I-cache on their
// own.
func probeSim(e *env, ops []cpu.Op, m cpu.Machine) error {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		sim := cpu.NewSim(m)
		t0 := time.Now()
		sim.Apply(ops)
		ds = append(ds, perUnit(time.Since(t0), len(ops)))
	}
	e.set("cpu.apply_ns_per_event", median(ds))

	var disp, fetch []cpu.Op
	for _, op := range ops {
		switch op.Kind {
		case cpu.OpDispatch:
			disp = append(disp, op)
		case cpu.OpFetch:
			fetch = append(fetch, op)
		}
	}
	if len(disp) == 0 || len(fetch) == 0 {
		return fmt.Errorf("probe stream has %d dispatches and %d fetches", len(disp), len(fetch))
	}
	d, _ := timed(func() error {
		p := m.NewPredictor()
		for i := range disp {
			p.Access(disp[i].A, disp[i].B, disp[i].C)
		}
		return nil
	})
	e.set("btb.access_ns", perUnit(d, len(disp)))
	d, _ = timed(func() error {
		ic := m.NewICache()
		for i := range fetch {
			ic.Touch(fetch[i].A, int(fetch[i].B))
		}
		return nil
	})
	e.set("icache.touch_ns", perUnit(d, len(fetch)))
	return nil
}

// probeTraces measures the trace tier on the gray/plain recording in
// the cache at dir: load, decode, replay through the decoder and
// through an arena, compile and diff, plus the simulator fed the
// decoded stream.
func probeTraces(e *env, dir string) error {
	gray := mustWorkload(probeForth)
	s := newGridSuite()
	pathOf := func(name string) (string, error) {
		v, err := harness.VariantByName(gray, name)
		if err != nil {
			return "", err
		}
		return filepath.Join(dir, s.TraceKey(gray, v).ID()+".vmdt"), nil
	}
	path, err := pathOf("plain")
	if err != nil {
		return err
	}
	m := paperMachines()[0]

	var t *disptrace.Trace
	d, err := timed(func() error {
		t, err = disptrace.Load(path)
		return err
	})
	if err != nil {
		return err
	}
	e.set("disptrace.load_ms", ms(d))

	// One untimed decode sizes the storage, so the timing is the
	// decoder's and not the slice's growth.
	ops, err := traceOps(t, nil)
	if err != nil {
		return err
	}
	d, err = timed(func() error {
		ops, err = traceOps(t, ops)
		return err
	})
	if err != nil {
		return err
	}
	events := len(ops)
	e.set("disptrace.decode_ns_per_event", perUnit(d, events))

	d, err = timed(func() error { return disptrace.Replay(t, cpu.NewSim(m), 1) })
	if err != nil {
		return err
	}
	e.set("disptrace.replay_ns_per_event", perUnit(d, events))

	var arena *disptrace.Arena
	var builds, allocs []float64
	for i := 0; i < probeReps; i++ {
		fresh, err := disptrace.Load(path)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		arena, err = fresh.Compile()
		builds = append(builds, ms(time.Since(t0)))
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	e.set("disptrace.compile_ms", median(builds))
	e.set("disptrace.compile_alloc_mb", median(allocs))

	t.Attach(arena)
	d, err = timed(func() error { return disptrace.Replay(t, cpu.NewSim(m), 1) })
	if err != nil {
		return err
	}
	e.set("disptrace.replay_compiled_ns_per_event", perUnit(d, events))

	other, err := pathOf("dynamic super")
	if err != nil {
		return err
	}
	a, err := disptrace.Load(path)
	if err != nil {
		return err
	}
	b, err := disptrace.Load(other)
	if err != nil {
		return err
	}
	d, err = timed(func() error {
		_, err := disptrace.DiffTraces(a, b, diffDetail)
		return err
	})
	if err != nil {
		return err
	}
	e.set("disptrace.diff_ms", ms(d))

	return probeSim(e, ops, m)
}
