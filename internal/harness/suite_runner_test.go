package harness

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/workload"
)

// TestRunAllPartialResults: a failing cell must not discard the cells
// that completed — RunAll returns the partial grid plus an error
// joining every failure.
func TestRunAllPartialResults(t *testing.T) {
	s := NewTestSuite()
	ws := []*workload.Workload{workload.Gray(), workload.TSCP()}
	vs := []Variant{
		{Name: "plain", Technique: core.TPlain},
		{Name: "broken", Technique: core.Technique(99)},
	}
	out, err := s.RunAll(ws, vs, cpu.Celeron800)
	if err == nil {
		t.Fatal("grid with a broken variant must error")
	}
	// Both failures are joined, not just the first.
	if n := strings.Count(err.Error(), "unknown technique"); n != 2 {
		t.Errorf("want 2 joined failures, error was: %v", err)
	}
	// The successful cells survived.
	for _, w := range ws {
		if out[w.Name]["plain"].Cycles == 0 {
			t.Errorf("%s/plain result discarded on partial failure", w.Name)
		}
		if out[w.Name]["broken"].Cycles != 0 {
			t.Errorf("%s/broken should hold zero counters", w.Name)
		}
	}
}

// TestSuiteCancellation: a cancelled suite context aborts the grid.
func TestSuiteCancellation(t *testing.T) {
	s := NewTestSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	_, err := s.RunAll([]*workload.Workload{workload.Gray()},
		[]Variant{{Name: "plain", Technique: core.TPlain}}, cpu.Celeron800)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSnapshot: cached runs surface as sorted structured records with
// the derived rates filled in.
func TestSnapshot(t *testing.T) {
	s := NewTestSuite()
	w := workload.Gray()
	v := Variant{Name: "plain", Technique: core.TPlain}
	c, err := s.Run(w, v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w, v, cpu.PentiumM); err != nil {
		t.Fatal(err)
	}
	runs := s.Snapshot()
	if len(runs) != 2 {
		t.Fatalf("snapshot has %d runs, want 2", len(runs))
	}
	if runs[0].Key() >= runs[1].Key() {
		t.Error("snapshot not sorted by key")
	}
	found := false
	for _, r := range runs {
		if r.Machine == "celeron-800" {
			found = true
			if r.Workload != w.Name || r.Variant != "plain" {
				t.Errorf("bad identity fields: %+v", r)
			}
			if r.Counters != c {
				t.Errorf("counters mismatch: %+v vs %+v", r.Counters, c)
			}
			if r.MispredictRate != c.MispredictRate() {
				t.Error("derived mispredict rate not filled")
			}
		}
	}
	if !found {
		t.Error("celeron-800 run missing from snapshot")
	}
}

// TestJobsOneMatchesParallel: the engine must be deterministic — the
// same grid at -jobs 1 and -jobs 8 yields identical counters.
func TestJobsOneMatchesParallel(t *testing.T) {
	ws := []*workload.Workload{workload.Gray(), workload.TSCP()}
	vs := []Variant{
		{Name: "plain", Technique: core.TPlain},
		{Name: "dynamic super", Technique: core.TDynamicSuper},
	}
	seq := NewTestSuite()
	seq.Jobs = 1
	par := NewTestSuite()
	par.Jobs = 8
	a, err := seq.RunAll(ws, vs, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.RunAll(ws, vs, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, v := range vs {
			if a[w.Name][v.Name] != b[w.Name][v.Name] {
				t.Errorf("%s/%s: sequential and parallel counters differ", w.Name, v.Name)
			}
		}
	}
}

// TestSingleFlight: concurrent identical runs share one simulation.
func TestSingleFlight(t *testing.T) {
	s := NewTestSuite()
	s.Jobs = 8
	var done atomic.Int32
	s.Progress = func(int, int) { done.Add(1) }
	w := workload.Gray()
	v := Variant{Name: "plain", Technique: core.TPlain}
	specs := make([]RunSpec, 16)
	for i := range specs {
		specs[i] = RunSpec{w, v, cpu.Celeron800}
	}
	cs, err := s.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] != cs[0] {
			t.Fatal("deduplicated runs returned different counters")
		}
	}
	if got := done.Load(); got != 16 {
		t.Errorf("progress fired %d times, want 16", got)
	}
	if len(s.Snapshot()) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(s.Snapshot()))
	}
}

// TestSuiteTrace: the paired-recording plumbing returns the same
// dispatch stream with and without a cache attached, records through
// the cache exactly once, and a second variant lands beside the first
// so comparative tooling can align them.
func TestSuiteTrace(t *testing.T) {
	w, err := workload.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	plain := Variant{Name: "plain", Technique: core.TPlain}
	sw := Variant{Name: "switch", Technique: core.TSwitch}

	bare := NewTestSuite()
	bare.ScaleDiv = 40
	direct, err := bare.Trace(w, plain, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}

	cached := NewTestSuite()
	cached.ScaleDiv = 40
	cached.Traces = disptrace.NewCache(t.TempDir())
	first, err := cached.Trace(w, plain, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	if first.Header != direct.Header {
		t.Fatalf("cached recording header differs:\n  %+v\n  %+v", first.Header, direct.Header)
	}
	stats := cached.Traces.Stats()
	if stats.Records != 1 {
		t.Fatalf("expected 1 recording, cache saw %d", stats.Records)
	}
	again, err := cached.Trace(w, plain, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	if again.Header != first.Header {
		t.Fatal("reloaded trace differs from recording")
	}
	if stats = cached.Traces.Stats(); stats.Records != 1 || stats.Loads != 1 {
		t.Fatalf("second Trace should load, not re-record: %+v", stats)
	}

	other, err := cached.Trace(w, sw, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	r, err := disptrace.DiffTraces(other, first, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AInsts != r.BInsts || r.Divergences == 0 {
		t.Fatalf("switch vs plain pair misaligned: %+v", r)
	}
}

// sameBits reports whether two counter sets are identical, floats
// compared by bit pattern.
func sameBits(a, b metrics.Counters) bool {
	if math.Float64bits(a.Cycles) != math.Float64bits(b.Cycles) ||
		math.Float64bits(a.MissCycles) != math.Float64bits(b.MissCycles) {
		return false
	}
	a.Cycles, a.MissCycles, b.Cycles, b.MissCycles = 0, 0, 0, 0
	return a == b
}

// countSpans returns how many spans named name a finished trace holds.
func countSpans(tr *obs.Trace, name string) int {
	rec := obs.NewRecorder(1, 1)
	rec.Record(tr)
	n := 0
	for _, sp := range rec.Snapshot().Recent[0].Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestCompute: the memo-free group computation returns exactly what
// the memoized grid path does, floats bit for bit, on every machine,
// with and without a trace cache — and leaves the result memo alone.
// Without a cache each cell is one "sim" span, the same accounting the
// memoized path keeps per memoized cell.
func TestCompute(t *testing.T) {
	w := workload.Gray()
	v := Variant{Name: "dynamic super", Technique: core.TDynamicSuper}
	machines := cpu.Machines()
	if len(machines) != 5 {
		t.Fatalf("want the five paper machines, have %d", len(machines))
	}
	for _, traced := range []bool{false, true} {
		name := "direct"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			ref := NewTestSuite()
			if traced {
				ref.Traces = disptrace.NewCache(t.TempDir())
			}
			specs := make([]RunSpec, len(machines))
			for i, m := range machines {
				specs[i] = RunSpec{w, v, m}
			}
			want, err := ref.RunSpecs(specs)
			if err != nil {
				t.Fatal(err)
			}

			s := NewTestSuite()
			if traced {
				s.Traces = disptrace.NewCache(t.TempDir())
			}
			ctx, tr := obs.NewTrace(context.Background(), "test", "compute")
			got, err := s.Compute(ctx, w, v, machines)
			tr.Finish(200, time.Since(tr.Start))
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range machines {
				if !sameBits(got[i], want[i]) {
					t.Errorf("%s: Compute = %+v, RunSpecs = %+v", m.Name, got[i], want[i])
				}
			}
			if n := s.ResultCount(); n != 0 {
				t.Errorf("Compute memoized %d results, want 0", n)
			}
			wantSims := len(machines)
			if traced {
				wantSims = 0 // recorded once, replayed into the rest
			}
			if n := countSpans(tr, "sim"); n != wantSims {
				t.Errorf("%d sim spans, want %d", n, wantSims)
			}
		})
	}

	// The memoized path: one sim span per cell it adds to the memo.
	s := NewTestSuite()
	ctx, tr := obs.NewTrace(context.Background(), "test", "memo")
	s.Ctx = ctx
	if _, err := s.RunAll([]*workload.Workload{w, workload.TSCP()}, []Variant{v, v}, cpu.Celeron800); err != nil {
		t.Fatal(err)
	}
	tr.Finish(200, time.Since(tr.Start))
	if n, cells := countSpans(tr, "sim"), s.ResultCount(); n != cells || cells != 2 {
		t.Errorf("%d sim spans for %d memoized cells, want 2 each", n, cells)
	}
}
