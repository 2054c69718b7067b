package disptrace_test

import (
	"errors"
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
	feedEvents(wa, evsA)
	wb := disptrace.NewWriter(testHeader())
	feedEvents(wb, evsB)
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
