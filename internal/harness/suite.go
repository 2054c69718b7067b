package harness

import (
	"context"
	"fmt"
	"sort"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/runner"
	"vmopt/internal/superinst"
	"vmopt/internal/workload"
)

// Suite runs benchmark/variant/machine combinations with caching of
// both results and trained static instruction sets. Experiment grids
// execute on the internal/runner worker pool; Jobs, Progress and Ctx
// control that pool for every experiment the suite runs. In-memory
// caches sit behind runner.Group, so a parallel grid computes each
// training profile and each result exactly once.
type Suite struct {
	// ScaleDiv divides each workload's default scale (tests and
	// parameter sweeps use > 1 to stay fast). 0 or 1 means full
	// scale.
	ScaleDiv int
	// MaxSteps bounds each simulated run.
	MaxSteps uint64
	// Jobs is the worker-pool parallelism for experiment grids;
	// <= 0 means GOMAXPROCS.
	Jobs int
	// Progress, if non-nil, is called after each grid job finishes
	// (see runner.Options.Progress).
	Progress func(done, total int)
	// Ctx, when non-nil, cancels in-flight experiment grids: the
	// pool stops dispatching once Ctx is done and the joined error
	// reports the skipped jobs. Experiment methods keep their plain
	// signatures; the suite owns the run lifecycle.
	Ctx context.Context
	// Traces, when non-nil, turns on record-once-replay-many: the
	// dispatch stream of each (benchmark, variant, scale) is
	// recorded on first use into this on-disk cache and every other
	// machine's counters are produced by replaying it. Replayed
	// counters are byte-identical to direct simulation (see
	// internal/disptrace), so enabling the cache never changes
	// results.
	Traces *disptrace.Cache

	results  runner.Group[resultKey, metrics.Counters]
	profiles runner.Group[string, *profileData]
}

type resultKey struct {
	bench   string
	variant string
	machine string
	scale   int
}

// profileData caches a training run of one workload.
type profileData struct {
	prof    *core.ProfileData
	runs    []core.Block
	runOps  [][]uint32
	weights []uint64
}

// NewSuite returns a Suite at full scale.
func NewSuite() *Suite {
	return &Suite{MaxSteps: 200_000_000}
}

// NewTestSuite returns a reduced-scale suite for unit tests.
func NewTestSuite() *Suite {
	return &Suite{ScaleDiv: 10, MaxSteps: 200_000_000}
}

func (s *Suite) scale(w *workload.Workload) int {
	return ScaleAt(w, s.ScaleDiv)
}

// ScaleAt computes the concrete scale a workload runs at under a
// scale divisor (DefaultScale reduced by the divisor, floored at 2) —
// a pure function of its arguments, so callers that only need the
// number (result records, cache keys) don't have to hold a suite.
func ScaleAt(w *workload.Workload, scaleDiv int) int {
	if scaleDiv <= 1 {
		return w.DefaultScale
	}
	n := w.DefaultScale / scaleDiv
	if n < 2 {
		n = 2
	}
	return n
}

// Scale reports the concrete scale the suite runs a workload at
// (DefaultScale reduced by ScaleDiv, floored at 2) — the scale field
// result records carry.
func (s *Suite) Scale(w *workload.Workload) int { return s.scale(w) }

// Variant is one interpreter configuration of Section 7.1.
type Variant struct {
	// Name is the paper's label.
	Name string
	// Technique is the dispatch technique.
	Technique core.Technique
	// NSupers and NReplicas are the static instruction budgets.
	NSupers   int
	NReplicas int
	// RandomReplicas selects random instead of round-robin copy
	// selection (the Section 5.1 ablation).
	RandomReplicas bool
	// OptimalParse uses the dynamic-programming superinstruction
	// parse instead of greedy maximum munch (Section 5.1).
	OptimalParse bool
	// Seed seeds random replica selection.
	Seed int64
}

// ForthVariants returns the Gforth interpreter variants of Section
// 7.1 in paper order.
func ForthVariants() []Variant {
	return []Variant{
		{Name: "plain", Technique: core.TPlain},
		{Name: "static repl", Technique: core.TStaticRepl, NReplicas: 400},
		{Name: "static super", Technique: core.TStaticSuper, NSupers: 400},
		{Name: "static both", Technique: core.TStaticBoth, NSupers: 35, NReplicas: 365},
		{Name: "dynamic repl", Technique: core.TDynamicRepl},
		{Name: "dynamic super", Technique: core.TDynamicSuper},
		{Name: "dynamic both", Technique: core.TDynamicBoth},
		{Name: "across bb", Technique: core.TAcrossBB},
		{Name: "with static super", Technique: core.TWithStaticSuper, NSupers: 400},
	}
}

// JavaVariants returns the JVM interpreter variants of Section 7.1
// (no "static both"; adds "w/static super across").
func JavaVariants() []Variant {
	return []Variant{
		{Name: "plain", Technique: core.TPlain},
		{Name: "static repl", Technique: core.TStaticRepl, NReplicas: 400},
		{Name: "static super", Technique: core.TStaticSuper, NSupers: 400},
		{Name: "dynamic repl", Technique: core.TDynamicRepl},
		{Name: "dynamic super", Technique: core.TDynamicSuper},
		{Name: "dynamic both", Technique: core.TDynamicBoth},
		{Name: "across bb", Technique: core.TAcrossBB},
		{Name: "with static super", Technique: core.TWithStaticSuper, NSupers: 400},
		{Name: "w/static super across", Technique: core.TWithStaticSuperAcross, NSupers: 400},
	}
}

// VariantByName resolves a variant label for a workload's language:
// the Section 7.1 variant lists of ForthVariants/JavaVariants plus
// "switch" (the Section 3 dispatch baseline). cmd/vmtrace uses it to
// reconstruct a recording configuration from a trace header.
func VariantByName(w *workload.Workload, name string) (Variant, error) {
	if name == "switch" {
		return Variant{Name: "switch", Technique: core.TSwitch}, nil
	}
	vs := JavaVariants()
	if w.Lang == "forth" {
		vs = ForthVariants()
	}
	for _, v := range vs {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("harness: unknown variant %q for %s (%s)", name, w.Name, w.Lang)
}

// profile returns the cached training profile of a workload.
// Concurrent callers for the same workload share one training run.
func (s *Suite) profile(w *workload.Workload) (*profileData, error) {
	return s.profiles.Do(w.Name,
		func() (*profileData, error) { return s.profileUncached(w) })
}

func (s *Suite) profileUncached(w *workload.Workload) (*profileData, error) {
	proc, leaders, err := w.NewProcess(s.scale(w))
	if err != nil {
		return nil, err
	}
	code := proc.Code()
	prof, err := core.Profile(proc, s.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", w.Name, err)
	}
	// Collect runs from the POST-quickening code: static selection
	// must target quick instructions (Section 5.4, "we replicate the
	// quick versions").
	runs := core.Runs(code, w.ISA(), leaders)
	p := &profileData{prof: prof, runs: runs}
	for _, r := range runs {
		p.runOps = append(p.runOps, core.Ops(code, r))
	}
	p.weights = prof.RunWeights(runs)
	return p, nil
}

// StaticSets is a trained static instruction set: the
// superinstruction table plus replica allocations.
type StaticSets struct {
	Table             *superinst.Table
	ReplicaExtra      []int
	SuperReplicaExtra []int
}

// TrainForth trains the static sets on the brainless benchmark
// (Section 7.1: "We used the most frequently executed VM instructions
// and sequences from a training run with the brainless benchmark").
func (s *Suite) TrainForth(nSupers, nReplicas int) (*StaticSets, error) {
	p, err := s.profile(workload.Brainless())
	if err != nil {
		return nil, err
	}
	return s.train([]*profileData{p}, workload.Brainless().ISA().NumOps(),
		nSupers, nReplicas, 0 /* execution-weighted, no short bias */)
}

// TrainJavaExcept trains the static sets on all Java benchmarks except
// the named one (Section 7.1: "for compress, we made our selection by
// profiling all SPECjvm98 benchmark programs except compress"),
// favoring shorter sequences.
func (s *Suite) TrainJavaExcept(excluded string, nSupers, nReplicas int) (*StaticSets, error) {
	var ps []*profileData
	var numOps int
	for _, w := range workload.Java() {
		if w.Name == excluded {
			continue
		}
		numOps = w.ISA().NumOps()
		p, err := s.profile(w)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return s.train(ps, numOps, nSupers, nReplicas, 1 /* short bias */)
}

func (s *Suite) train(ps []*profileData, numOps, nSupers, nReplicas int, bias float64) (*StaticSets, error) {
	var blocks [][]uint32
	var weights []uint64
	opFreq := make([]uint64, numOps)
	for _, p := range ps {
		blocks = append(blocks, p.runOps...)
		if bias > 0 {
			// Static appearance counts (JVM selection).
			for range p.runOps {
				weights = append(weights, 1)
			}
		} else {
			weights = append(weights, p.weights...)
		}
		for op, c := range p.prof.OpFreq {
			opFreq[op] += c
		}
	}
	out := &StaticSets{}
	if nSupers > 0 {
		counts := superinst.CollectSequences(blocks, 4, weights)
		seqs := superinst.SelectTop(counts, nSupers, bias)
		if len(seqs) > 0 {
			t, err := superinst.NewTable(seqs)
			if err != nil {
				return nil, err
			}
			out.Table = t
		}
	}
	if nReplicas > 0 {
		if out.Table != nil {
			// Allocate replicas jointly over opcodes and
			// superinstructions in proportion to frequency
			// ("static both": replicas of instructions and
			// superinstructions).
			superFreq := s.superFreq(out.Table, blocks, weights)
			joint := append(append([]uint64(nil), opFreq...), superFreq...)
			alloc := superinst.AllocateReplicas(joint, nReplicas)
			out.ReplicaExtra = alloc[:numOps]
			out.SuperReplicaExtra = alloc[numOps:]
		} else {
			out.ReplicaExtra = superinst.AllocateReplicas(opFreq, nReplicas)
		}
	}
	return out, nil
}

// superFreq estimates how often each superinstruction would be used
// on the training runs (greedy parse occurrence counts).
func (s *Suite) superFreq(t *superinst.Table, blocks [][]uint32, weights []uint64) []uint64 {
	freq := make([]uint64, t.NumSupers())
	for bi, ops := range blocks {
		w := uint64(1)
		if weights != nil {
			w = weights[bi]
		}
		for _, piece := range t.GreedyParse(ops) {
			if piece.Super >= 0 {
				freq[piece.Super] += w
			}
		}
	}
	return freq
}

// configFor builds the core.Config for a variant running workload w.
func (s *Suite) configFor(w *workload.Workload, v Variant) (core.Config, error) {
	cfg := core.Config{Technique: v.Technique}
	needsStatic := v.NSupers > 0 || v.NReplicas > 0
	if needsStatic {
		var sets *StaticSets
		var err error
		if w.Lang == "forth" {
			sets, err = s.TrainForth(v.NSupers, v.NReplicas)
			// The Gforth implementation copies static replicas at
			// startup, so static schemes show a few KB of generated
			// code (Section 7.3).
			cfg.CountStaticCopies = true
		} else {
			sets, err = s.TrainJavaExcept(w.Name, v.NSupers, v.NReplicas)
		}
		if err != nil {
			return cfg, err
		}
		cfg.Supers = sets.Table
		cfg.ReplicaExtra = sets.ReplicaExtra
		if v.Technique == core.TStaticBoth {
			cfg.SuperReplicaExtra = sets.SuperReplicaExtra
		}
	}
	if v.RandomReplicas {
		cfg.ReplicaMode = superinst.Random
		cfg.Seed = v.Seed
	}
	cfg.UseOptimalParse = v.OptimalParse
	return cfg, nil
}

// Run executes one benchmark under one variant on one machine,
// caching the result. Concurrent callers for the same key share one
// simulation. With a trace cache attached, the first machine to need
// a (benchmark, variant) pair records its dispatch stream and every
// other machine replays it instead of re-executing the guest VM.
func (s *Suite) Run(w *workload.Workload, v Variant, m cpu.Machine) (metrics.Counters, error) {
	return s.RunCtx(s.context(), w, v, m)
}

// RunCtx is Run under a request context: when ctx carries an obs
// trace, the cell's work is attributed to its stages (see Compute).
// Coalesced concurrent callers share one computation, whose stages
// land on the trace of the caller that ran it. Results are identical
// to Run.
func (s *Suite) RunCtx(ctx context.Context, w *workload.Workload, v Variant, m cpu.Machine) (metrics.Counters, error) {
	key := resultKey{bench: w.Name, variant: v.Name, machine: m.Name, scale: s.scale(w)}
	return s.results.Do(key, func() (metrics.Counters, error) {
		cs, err := s.Compute(ctx, w, v, []cpu.Machine{m})
		if err != nil {
			return metrics.Counters{}, err
		}
		return cs[0], nil
	})
}

// Compute produces the counters of one (benchmark, variant) pair on
// each of machines, in order, without reading or filling the suite's
// result memo — for callers that keep their own (a server's LRU).
// Trained static sets are still shared through the suite.
//
// With a trace cache attached it gets or records the pair's dispatch
// trace once: a recording run is a direct simulation on machines[0],
// so its counters are that machine's result, and the other machines
// replay the trace. Without one, each machine is a direct simulation
// on the suite's worker pool. When ctx carries an obs trace the work
// is attributed to its stages: one "sim" per directly simulated cell,
// "record" or "trace_load" for the trace, and the replay's own stages.
func (s *Suite) Compute(ctx context.Context, w *workload.Workload, v Variant, machines []cpu.Machine) ([]metrics.Counters, error) {
	if s.Traces == nil {
		return runner.Map(ctx, len(machines), runner.Options{Jobs: s.Jobs},
			func(ctx context.Context, i int) (metrics.Counters, error) {
				sp := obs.Start(ctx, "sim")
				defer sp.End()
				return s.simulate(w, v, machines[i], nil)
			})
	}
	out := make([]metrics.Counters, len(machines))
	if len(machines) == 0 {
		return out, nil
	}
	recorded := false
	sp := obs.Start(ctx, "trace_load")
	tr, _, err := s.Traces.GetOrRecord(s.TraceKey(w, v), func() (*disptrace.Trace, error) {
		tr, c, err := s.RecordTrace(w, v, machines[0])
		if err != nil {
			return nil, err
		}
		out[0], recorded = c, true
		return tr, nil
	})
	if recorded {
		// Only learned after the fact: the get-or-record call spent its
		// time recording, not loading.
		sp.EndAs("record")
	} else {
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	replay := machines
	if recorded {
		replay = machines[1:]
	}
	sims := make([]*cpu.Sim, len(replay))
	for k, m := range replay {
		sims[k] = cpu.NewSim(m)
	}
	switch len(sims) {
	case 0:
	case 1:
		// jobs=1: a lone cell runs inside a worker pool that already
		// saturates the cores; sequential replay keeps its buffer reuse
		// instead of nesting decode goroutines that have nowhere to run.
		if err := disptrace.ReplayCtx(ctx, tr, sims[0], 1); err != nil {
			return nil, fmt.Errorf("%s/%s on %s: replaying trace: %w", w.Name, v.Name, replay[0].Name, err)
		}
	default:
		// One decode pass feeds every machine's simulator.
		if err := disptrace.ReplayEachCtx(ctx, tr, sims); err != nil {
			return nil, fmt.Errorf("%s/%s: replaying trace: %w", w.Name, v.Name, err)
		}
	}
	off := len(machines) - len(sims)
	for k, sim := range sims {
		out[off+k] = sim.C
	}
	return out, nil
}

// simulate runs one cell by direct simulation, optionally recording
// the event stream into sink.
func (s *Suite) simulate(w *workload.Workload, v Variant, m cpu.Machine, sink cpu.Sink) (metrics.Counters, error) {
	cfg, err := s.configFor(w, v)
	if err != nil {
		return metrics.Counters{}, err
	}
	proc, leaders, err := w.NewProcess(s.scale(w))
	if err != nil {
		return metrics.Counters{}, err
	}
	cfg.ExtraLeaders = leaders
	plan, err := core.BuildPlan(proc.Code(), w.ISA(), cfg)
	if err != nil {
		return metrics.Counters{}, fmt.Errorf("%s/%s: %w", w.Name, v.Name, err)
	}
	sim := cpu.NewSim(m)
	sim.Sink = sink
	c, err := core.Run(proc, plan, sim, s.MaxSteps)
	if err != nil {
		return metrics.Counters{}, fmt.Errorf("%s/%s on %s: %w", w.Name, v.Name, m.Name, err)
	}
	return c, nil
}

// TraceKey identifies the dispatch stream of one (benchmark, variant)
// pair at the suite's scale — the content address under which the
// trace cache stores its recording.
func (s *Suite) TraceKey(w *workload.Workload, v Variant) disptrace.Key {
	div := s.ScaleDiv
	if div < 1 {
		div = 1
	}
	return disptrace.Key{
		Workload:  w.Name,
		Lang:      w.Lang,
		Variant:   v.Name,
		Technique: v.Technique.String(),
		Scale:     uint64(s.scale(w)),
		ScaleDiv:  uint64(div),
		MaxSteps:  s.MaxSteps,
		ISAHash:   disptrace.HashISA(w.ISA()),
	}
}

// RecordTrace records the dispatch stream of one (benchmark, variant)
// pair by direct simulation on machine m, bypassing both caches. It
// returns the trace together with the recording run's counters (the
// direct-simulation result for m).
func (s *Suite) RecordTrace(w *workload.Workload, v Variant, m cpu.Machine) (*disptrace.Trace, metrics.Counters, error) {
	tw := disptrace.NewWriter(s.TraceKey(w, v).Header())
	c, err := s.simulate(w, v, m, tw)
	if err != nil {
		return nil, metrics.Counters{}, err
	}
	return tw.Trace(), c, nil
}

// Trace returns the dispatch trace of one (benchmark, variant) pair
// at the suite's scale: loaded from the attached cache when present
// (recording through it on a miss, so concurrent callers coalesce and
// the recording persists), or recorded directly when the suite has no
// cache. This is the plumbing for paired recordings — comparative
// tooling (vmtrace diff) asks for two variants' traces of one
// workload and aligns them by VM instruction index.
func (s *Suite) Trace(w *workload.Workload, v Variant, m cpu.Machine) (*disptrace.Trace, error) {
	if s.Traces == nil {
		tr, _, err := s.RecordTrace(w, v, m)
		return tr, err
	}
	tr, _, err := s.Traces.GetOrRecord(s.TraceKey(w, v), func() (*disptrace.Trace, error) {
		tr, _, err := s.RecordTrace(w, v, m)
		return tr, err
	})
	return tr, err
}

// RunSpec is one (workload, variant, machine) cell of an experiment
// grid.
type RunSpec struct {
	W *workload.Workload
	V Variant
	M cpu.Machine
}

// context returns the suite's cancellation context.
func (s *Suite) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// RunSpecs executes a grid of runs on the worker pool and returns the
// counters in spec order. All failures are collected: the returned
// error joins every failed cell, and the counters of successful cells
// are still valid (failed cells hold zero counters).
//
// With a trace cache attached, cells that share a (benchmark,
// variant) pair are grouped: the group loads (or records) the
// dispatch trace once and replays it into every machine's simulator
// in a single decode pass, so the pool parallelism is over groups
// rather than cells and Progress counts groups.
func (s *Suite) RunSpecs(specs []RunSpec) ([]metrics.Counters, error) {
	return s.RunSpecsCtx(s.context(), specs)
}

// RunSpecsCtx is RunSpecs under a caller-supplied cancellation
// context, overriding the suite's Ctx for this grid only. A server
// shares one suite — and therefore one result/profile cache — across
// many requests but needs each request's grid to stop dispatching
// when that request is cancelled; results remain identical to
// RunSpecs since the context controls scheduling, never simulation.
func (s *Suite) RunSpecsCtx(ctx context.Context, specs []RunSpec) ([]metrics.Counters, error) {
	if ctx == nil {
		ctx = s.context()
	}
	if s.Traces != nil {
		return s.runSpecsTraced(ctx, specs)
	}
	return runner.Map(ctx, len(specs),
		runner.Options{Jobs: s.Jobs, Progress: s.Progress},
		func(ctx context.Context, i int) (metrics.Counters, error) {
			sp := specs[i]
			return s.RunCtx(ctx, sp.W, sp.V, sp.M)
		})
}

// runSpecsTraced is the record-once-replay-many grid schedule: one
// pool job per (benchmark, variant) group.
func (s *Suite) runSpecsTraced(ctx context.Context, specs []RunSpec) ([]metrics.Counters, error) {
	type groupKey struct {
		bench, variant string
		scale          int
	}
	var order []groupKey
	groups := make(map[groupKey][]int)
	for i, sp := range specs {
		k := groupKey{sp.W.Name, sp.V.Name, s.scale(sp.W)}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	results := make([]metrics.Counters, len(specs))
	_, err := runner.Map(ctx, len(order),
		runner.Options{Jobs: s.Jobs, Progress: s.Progress},
		func(ctx context.Context, gi int) (struct{}, error) {
			idxs := groups[order[gi]]
			cs, err := s.runGroup(ctx, specs, idxs)
			if err != nil {
				return struct{}{}, err
			}
			for j, i := range idxs {
				results[i] = cs[j]
			}
			return struct{}{}, nil
		})
	return results, err
}

// runGroup computes the cells at idxs (all sharing one workload and
// variant) from one trace: machines whose results are already cached
// are taken from the cache, the rest are computed together. Every
// result is published into the suite's result cache so later Run
// calls and Snapshot see it.
func (s *Suite) runGroup(ctx context.Context, specs []RunSpec, idxs []int) ([]metrics.Counters, error) {
	w, v := specs[idxs[0]].W, specs[idxs[0]].V
	scale := s.scale(w)
	keyOf := func(m cpu.Machine) resultKey {
		return resultKey{bench: w.Name, variant: v.Name, machine: m.Name, scale: scale}
	}

	// Machines still needing a run, deduplicated in first-seen order.
	var need []cpu.Machine
	seen := make(map[string]bool)
	for _, i := range idxs {
		m := specs[i].M
		if _, ok := s.results.Get(keyOf(m)); ok || seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		need = append(need, m)
	}

	if len(need) > 0 {
		cs, err := s.Compute(ctx, w, v, need)
		if err != nil {
			return nil, err
		}
		// Publish into the result cache (keeps single-cell Run and
		// Snapshot coherent; an identical concurrent result wins
		// harmlessly).
		for k, m := range need {
			if _, err := s.results.Do(keyOf(m), func() (metrics.Counters, error) { return cs[k], nil }); err != nil {
				return nil, err
			}
		}
	}

	out := make([]metrics.Counters, len(idxs))
	for j, i := range idxs {
		c, err := s.RunCtx(ctx, specs[i].W, specs[i].V, specs[i].M)
		if err != nil {
			return nil, err
		}
		out[j] = c
	}
	return out, nil
}

// RunAll runs every (benchmark, variant) pair on a machine and
// returns counters[bench][variant]. On failure it returns the partial
// results of every pair that did succeed together with an error
// joining all failures, so callers can render what completed.
func (s *Suite) RunAll(ws []*workload.Workload, vs []Variant, m cpu.Machine) (map[string]map[string]metrics.Counters, error) {
	var specs []RunSpec
	for _, w := range ws {
		for _, v := range vs {
			specs = append(specs, RunSpec{w, v, m})
		}
	}
	res, err := s.RunSpecs(specs)
	out := make(map[string]map[string]metrics.Counters)
	for _, w := range ws {
		out[w.Name] = make(map[string]metrics.Counters)
	}
	for k, sp := range specs {
		out[sp.W.Name][sp.V.Name] = res[k]
	}
	return out, err
}

// ResultCount reports how many run results the suite has memoized.
func (s *Suite) ResultCount() int { return s.results.Len() }

// Snapshot returns every cached run as a structured result record,
// sorted by key — the machine-readable layer behind vmbench's JSON
// and CSV output.
func (s *Suite) Snapshot() []runner.Run {
	cached := s.results.Cached()
	runs := make([]runner.Run, 0, len(cached))
	for k, c := range cached {
		runs = append(runs, runner.NewRun(k.bench, k.variant, k.machine, k.scale, c))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Key() < runs[j].Key() })
	return runs
}
