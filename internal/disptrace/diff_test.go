package disptrace_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/workload"
)

// diffPair records gray under two dispatch techniques at test scale.
func diffPair(t *testing.T) (a, b *disptrace.Trace) {
	t.Helper()
	w, err := workload.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	sw, err := harness.VariantByName(w, "switch")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := harness.VariantByName(w, "plain")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err = s.RecordTrace(w, sw, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err = s.RecordTrace(w, pl, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestDiffSelfIdentical: any trace diffed against itself reports zero
// divergences, in every trace form.
func TestDiffSelfIdentical(t *testing.T) {
	a, _ := diffPair(t)
	for name, form := range cursorTraceForms(t, a) {
		r, err := disptrace.DiffTraces(a, form, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Identical || r.Divergences != 0 || r.FirstDivergence != -1 {
			t.Fatalf("%s: self-diff not identical: %+v", name, r)
		}
		if r.AInsts != a.Header.VMInstructions || r.Compared != r.AInsts {
			t.Fatalf("%s: self-diff counted %d/%d of %d insts", name, r.AInsts, r.Compared, a.Header.VMInstructions)
		}
	}
}

// TestDiffCrossTechnique: switch vs threaded dispatch of the same
// workload aligns instruction for instruction, diverges
// deterministically, and the report is stable across repeated runs
// and across the two traces' forms.
func TestDiffCrossTechnique(t *testing.T) {
	a, b := diffPair(t)
	r, err := disptrace.DiffTraces(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.AInsts != r.BInsts {
		t.Fatalf("same guest execution, different instruction counts: %d vs %d", r.AInsts, r.BInsts)
	}
	if r.Identical || r.Divergences == 0 {
		t.Fatal("switch vs threaded dispatch cannot be identical")
	}
	if r.FirstDivergence < 0 {
		t.Fatal("divergences found but no first index")
	}
	if len(r.First) != 3 {
		t.Fatalf("asked for 3 detailed divergences, got %d", len(r.First))
	}
	if got := uint64(len(r.First[0].Fields)); got == 0 {
		t.Fatal("detailed divergence names no fields")
	}
	// Switch dispatch funnels every dispatch through one shared
	// indirect branch (Table I): side A's branch address must repeat
	// while side B's differs per instruction.
	if r.First[0].A.Branch != r.First[1].A.Branch {
		t.Errorf("switch dispatch branches from %#x then %#x; expected one shared branch",
			r.First[0].A.Branch, r.First[1].A.Branch)
	}
	if r.First[0].B.Branch == r.First[1].B.Branch {
		t.Errorf("threaded dispatch reuses branch %#x; expected per-instruction branches", r.First[0].B.Branch)
	}

	// Determinism: recomputing and mixing encodings changes nothing.
	for name, form := range cursorTraceForms(t, b) {
		r2, err := disptrace.DiffTraces(a, form, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r2.FirstDivergence != r.FirstDivergence || r2.Divergences != r.Divergences ||
			r2.WorkDiffs != r.WorkDiffs || r2.FetchDiffs != r.FetchDiffs || r2.DispatchDiffs != r.DispatchDiffs {
			t.Fatalf("%s: diff not deterministic:\n  first %+v\n  again %+v", name, r, r2)
		}
	}
}

// TestDiffMismatched: traces of different workloads, scales or ISA
// revisions refuse to align.
func TestDiffMismatched(t *testing.T) {
	a, _ := diffPair(t)
	other := *a
	other.Header.Workload = "tscp"
	if _, err := disptrace.DiffTraces(a, &other, 1); !errors.Is(err, disptrace.ErrMismatched) {
		t.Errorf("different workloads: got %v, want ErrMismatched", err)
	}
	other = *a
	other.Header.Scale++
	if _, err := disptrace.DiffTraces(a, &other, 1); !errors.Is(err, disptrace.ErrMismatched) {
		t.Errorf("different scales: got %v, want ErrMismatched", err)
	}
	other = *a
	other.Header.ISAHash ^= 1
	if _, err := disptrace.DiffTraces(a, &other, 1); !errors.Is(err, disptrace.ErrMismatched) {
		t.Errorf("different ISAs: got %v, want ErrMismatched", err)
	}
}

// TestDiffLengthMismatch: a truncated side still aligns its compared
// prefix and the report exposes the unequal totals.
func TestDiffLengthMismatch(t *testing.T) {
	evsA := stepEvents(100, 11)
	evsB := stepEvents(100, 11)[:len(stepEvents(60, 11))] // same prefix, shorter
	wa := disptrace.NewWriter(testHeader())
	recordSteps(wa, splitSteps(evsA)...)
	wb := disptrace.NewWriter(testHeader())
	recordSteps(wb, splitSteps(evsB)...)
	a, b := wa.Trace(), wb.Trace()
	r, err := disptrace.DiffTraces(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.AInsts <= r.BInsts || r.Compared != r.BInsts {
		t.Fatalf("length mismatch mishandled: %+v", r)
	}
	if r.Identical {
		t.Fatal("unequal lengths reported identical")
	}
	if r.Divergences != 0 {
		t.Fatalf("identical prefix reported %d divergences", r.Divergences)
	}
}

// referenceDiff is DiffTraces as it was before step dictionaries: walk
// both cursors in lockstep and summarize every step, one at a time.
// It is kept as the model the dictionary-keyed diff must match.
func referenceDiff(a, b *disptrace.Trace, maxDetail int) disptrace.DiffReport {
	summarize := func(st disptrace.Step) disptrace.StepDiff {
		d := disptrace.StepDiff{Work: st.Work()}
		d.Fetch, _ = st.Fetch()
		d.Branch, d.Target, d.Dispatched = st.Dispatch()
		return d
	}
	ah, bh := a.Header, b.Header
	r := disptrace.DiffReport{
		Workload: ah.Workload, Lang: ah.Lang, Scale: ah.Scale, ISAHash: ah.ISAHash,
		AVariant: ah.Variant, ATechnique: ah.Technique,
		BVariant: bh.Variant, BTechnique: bh.Technique,
		FirstDivergence: -1,
	}
	ca, cb := disptrace.NewCursor(a), disptrace.NewCursor(b)
	for {
		sa, okA := ca.Next()
		sb, okB := cb.Next()
		if !okA || !okB {
			if okA {
				r.AInsts = ah.VMInstructions
			}
			if okB {
				r.BInsts = bh.VMInstructions
			}
			break
		}
		r.AInsts++
		r.BInsts++
		r.Compared++
		da, db := summarize(sa), summarize(sb)
		var fields []string
		if da.Work != db.Work {
			fields = append(fields, "work")
			r.WorkDiffs++
		}
		if da.Fetch != db.Fetch {
			fields = append(fields, "fetch")
			r.FetchDiffs++
		}
		if da.Dispatched != db.Dispatched || da.Branch != db.Branch || da.Target != db.Target {
			fields = append(fields, "dispatch")
			r.DispatchDiffs++
		}
		if len(fields) == 0 {
			continue
		}
		if r.Divergences == 0 {
			r.FirstDivergence = int64(sa.Index)
		}
		r.Divergences++
		if len(r.First) < maxDetail {
			r.First = append(r.First, disptrace.Divergence{Inst: sa.Index, Fields: fields, A: da, B: db})
		}
	}
	r.Identical = r.Divergences == 0 && r.AInsts == r.BInsts
	return r
}

// diffTemplates draws a pool of step shapes: fall-through and
// dispatching steps with varied work, fetch and branch fields, plus
// an empty step. Several share summaries while differing in ops (a
// second fetch, split work), so equal summaries under different IDs
// occur.
func diffTemplates(rng *rand.Rand, n int) [][]cpu.Op {
	work := func(n int) cpu.Op { return cpu.Op{Kind: cpu.OpWork, A: uint64(n)} }
	tpl := [][]cpu.Op{{}}
	for len(tpl) < n {
		code := uint64(0x1000 + rng.Intn(64)*32)
		st := []cpu.Op{work(rng.Intn(4)), {Kind: cpu.OpFetch, A: code, B: 8}}
		switch rng.Intn(4) {
		case 0:
			st = append(st, work(rng.Intn(3)))
		case 1:
			st = append(st, work(1), work(1)) // split work
		default:
			branch := code + uint64(8+rng.Intn(3)*8)
			st = append(st, work(1), cpu.Op{Kind: cpu.OpFetch, A: branch, B: 4},
				cpu.Op{Kind: cpu.OpDispatch, A: branch, B: uint64(rng.Intn(4)), C: uint64(0x1000 + rng.Intn(64)*32)})
		}
		tpl = append(tpl, st)
	}
	return tpl
}

// TestDiffMatchesReference drives DiffTraces and the per-step
// reference over seeded writer-built pairs — side B is side A with
// some steps swapped for other shapes, a different opening (so the
// two dictionaries number the same steps differently) and sometimes a
// different length — and requires identical reports.
func TestDiffMatchesReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	renumbered := 0
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		tpl := diffTemplates(rng, 4+rng.Intn(24))
		n := 1 + rng.Intn(400)
		seqA := make([]int, n)
		for i := range seqA {
			seqA[i] = rng.Intn(len(tpl))
		}
		seqB := slices.Clone(seqA)
		seqB[0] = len(tpl) - 1 - seqA[0]
		for i := range seqB {
			if rng.Intn(8) == 0 {
				seqB[i] = rng.Intn(len(tpl))
			}
		}
		switch rng.Intn(3) {
		case 0:
			seqB = seqB[:rng.Intn(len(seqB)+1)]
		case 1:
			for range rng.Intn(20) {
				seqB = append(seqB, rng.Intn(len(tpl)))
			}
		}
		record := func(variant string, seq []int) *disptrace.Trace {
			h := testHeader()
			h.Variant = variant
			w := disptrace.NewWriter(h)
			for _, k := range seq {
				w.RecordStep(tpl[k])
			}
			return w.Trace()
		}
		a, b := record("a", seqA), record("b", seqB)
		if len(seqB) > 0 && seqA[0] != seqB[0] {
			renumbered++
		}
		for _, pair := range [][2]*disptrace.Trace{{a, b}, {b, a}, {a, a}} {
			detail := rng.Intn(6)
			got, err := disptrace.DiffTraces(pair[0], pair[1], detail)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceDiff(pair[0], pair[1], detail); !reflect.DeepEqual(*got, want) {
				t.Fatalf("seed %d: diff report\n  got       %+v\n  reference %+v", seed, *got, want)
			}
		}
	}
	if renumbered < seeds/2 {
		t.Fatalf("only %d of %d pairs open differently; the dictionaries rarely number steps differently", renumbered, seeds)
	}
}
