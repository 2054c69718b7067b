// Trace diffing: align two dispatch traces of the same workload by VM
// instruction index and report where their streams diverge. This is
// the paper's Tables I-IV turned into a tool — the worked examples
// walk exactly this comparison (the same guest program under switch,
// threaded, replicated and superinstruction dispatch) by hand.
//
// Alignment by VM instruction is sound because the guest execution is
// technique-independent: every variant steps the same program through
// the same states, so instruction k of one trace and instruction k of
// the other are the same guest-level event even when their native
// code layout, work counts and dispatch behavior differ — which is
// precisely what the diff measures.
package disptrace

import (
	"errors"
	"fmt"

	"vmopt/internal/cpu"
	"vmopt/internal/steptok"
)

// ErrMismatched reports two traces that cannot be aligned: different
// workloads, scales or ISA revisions record different guest
// executions, so an instruction-indexed comparison would be
// meaningless. Callers distinguish it from I/O or decode failures
// with errors.Is.
var ErrMismatched = errors.New("disptrace: traces record different workloads")

// StepDiff condenses one VM instruction's stream for comparison: the
// per-step fields the paper's trace tables show.
type StepDiff struct {
	// Work is the step's straight-line native instruction count.
	Work uint64 `json:"work"`
	// Fetch is the step's first fetch address — where the VM
	// instruction's implementation lives (replication and
	// superinstructions move it).
	Fetch uint64 `json:"fetch"`
	// Dispatched reports whether the step ended in an indirect
	// dispatch; Branch and Target are its addresses when it did.
	Dispatched bool   `json:"dispatched"`
	Branch     uint64 `json:"branch,omitempty"`
	Target     uint64 `json:"target,omitempty"`
}

// summarizeStep extracts the comparable fields of a step.
func summarizeStep(st Step) StepDiff {
	d := StepDiff{Work: st.Work()}
	d.Fetch, _ = st.Fetch()
	d.Branch, d.Target, d.Dispatched = st.Dispatch()
	return d
}

// Divergence is one aligned instruction whose streams differ.
type Divergence struct {
	// Inst is the VM-instruction index the divergence occurred at.
	Inst uint64 `json:"inst"`
	// Fields names what differs: "work", "fetch", "dispatch".
	Fields []string `json:"fields"`
	A      StepDiff `json:"a"`
	B      StepDiff `json:"b"`
}

// DiffReport is the result of aligning two traces instruction by
// instruction.
type DiffReport struct {
	// Workload, Lang, Scale and ISAHash are the shared recording
	// configuration; AVariant/BVariant (with techniques) identify the
	// two sides.
	Workload   string `json:"workload"`
	Lang       string `json:"lang"`
	Scale      uint64 `json:"scale"`
	ISAHash    uint64 `json:"isa_hash"`
	AVariant   string `json:"a_variant"`
	ATechnique string `json:"a_technique"`
	BVariant   string `json:"b_variant"`
	BTechnique string `json:"b_technique"`

	// AInsts and BInsts are each side's instruction count; Compared
	// is the aligned range (their minimum).
	AInsts   uint64 `json:"a_insts"`
	BInsts   uint64 `json:"b_insts"`
	Compared uint64 `json:"compared"`

	// Divergences counts aligned instructions that differ in any
	// field; the per-field counters break that down (one instruction
	// can differ in several).
	Divergences   uint64 `json:"divergences"`
	WorkDiffs     uint64 `json:"work_diffs"`
	FetchDiffs    uint64 `json:"fetch_diffs"`
	DispatchDiffs uint64 `json:"dispatch_diffs"`

	// FirstDivergence is the index of the first divergent instruction
	// (-1 when the compared range is identical).
	FirstDivergence int64 `json:"first_divergence"`
	// First details the first few divergences (up to the caller's
	// bound).
	First []Divergence `json:"first,omitempty"`

	// Identical reports byte-level stream agreement: no divergences
	// and equal instruction counts.
	Identical bool `json:"identical"`
}

// DiffTraces aligns two traces of the same workload by VM instruction
// index and reports where their dispatch streams diverge, detailing
// the first maxDetail divergences. The traces must share workload,
// language, scale and ISA hash (ErrMismatched otherwise); variants
// and techniques are exactly what is expected to differ.
func DiffTraces(a, b *Trace, maxDetail int) (*DiffReport, error) {
	ah, bh := a.Header, b.Header
	if ah.Workload != bh.Workload || ah.Lang != bh.Lang ||
		ah.Scale != bh.Scale || ah.ISAHash != bh.ISAHash {
		return nil, fmt.Errorf("%w: %s/%s scale %d isa %#x vs %s/%s scale %d isa %#x",
			ErrMismatched, ah.Workload, ah.Lang, ah.Scale, ah.ISAHash,
			bh.Workload, bh.Lang, bh.Scale, bh.ISAHash)
	}
	if maxDetail < 0 {
		maxDetail = 0
	}
	r := &DiffReport{
		Workload: ah.Workload, Lang: ah.Lang, Scale: ah.Scale, ISAHash: ah.ISAHash,
		AVariant: ah.Variant, ATechnique: ah.Technique,
		BVariant: bh.Variant, BTechnique: bh.Technique,
		FirstDivergence: -1,
	}

	// Step IDs are local to a trace — equal IDs in two traces need
	// not mean equal steps — so each field of both dictionaries'
	// summaries is interned into classes the two traces share, and the
	// walk compares each instruction's classes, counting without a
	// branch. It walks both token streams in lockstep (see package
	// steptok), a stretch of steps that neither side's current token
	// ends in at a time: each side's successor lookups form a chain of
	// dependent loads, and walking the two together lets them overlap.
	ca, cb := fieldClasses(a.arena, b.arena)
	ta, tb := a.arena.toks, b.arena.toks
	na, nb := newSuccessors(len(a.arena.dict)), newSuccessors(len(b.arena.dict))
	x, y := uint32(len(a.arena.dict)), uint32(len(b.arena.dict))
	var ia, ib, la, lb int
	n := min(a.arena.steps, b.arena.steps)
	r.AInsts, r.BInsts, r.Compared = a.arena.steps, b.arena.steps, n
	var div, works, fetches, dispatches uint64
	for at := uint64(0); at < n; {
		if la == 0 {
			la, ia = steptok.Take(ta, ia, na, x)
		}
		if lb == 0 {
			lb, ib = steptok.Take(tb, ib, nb, y)
		}
		k := min(la, lb, int(min(n-at, steptok.MaxRun)))
		for j := range k {
			x, y = na[x], nb[y]
			fa, fb := &ca[x], &cb[y]
			work, fetch, dispatch := differs(fa.work, fb.work), differs(fa.fetch, fb.fetch), differs(fa.dispatch, fb.dispatch)
			works, fetches, dispatches = works+work, fetches+fetch, dispatches+dispatch
			div += work | fetch | dispatch
			if (r.FirstDivergence < 0 || len(r.First) < maxDetail) && work|fetch|dispatch != 0 {
				r.detail(at+uint64(j), a.arena.dict[x], b.arena.dict[y], work != 0, fetch != 0, dispatch != 0, maxDetail)
			}
		}
		la, lb, at = la-k, lb-k, at+uint64(k)
	}
	r.Divergences, r.WorkDiffs, r.FetchDiffs, r.DispatchDiffs = div, works, fetches, dispatches
	r.Identical = r.Divergences == 0 && r.AInsts == r.BInsts
	return r, nil
}

// newSuccessors returns the successor table of a walk over a
// dictionary of dict steps. A valid stream sets each entry before
// following it, so it needs no initial values.
func newSuccessors(dict int) []uint32 { return make([]uint32, dict+1) }

// differs is 1 if a and b differ and 0 if not.
func differs(a, b uint32) uint64 {
	if a != b {
		return 1
	}
	return 0
}

// detail notes the divergent instruction inst, whose steps run the ops
// a and b in the two traces and differ in the fields flagged: the first
// divergence, and each of the first maxDetail in full.
func (r *DiffReport) detail(inst uint64, a, b []cpu.Op, work, fetch, dispatch bool, maxDetail int) {
	if r.FirstDivergence < 0 {
		r.FirstDivergence = int64(inst)
	}
	if len(r.First) == maxDetail {
		return
	}
	var fields []string
	for _, f := range []struct {
		differs bool
		name    string
	}{{work, "work"}, {fetch, "fetch"}, {dispatch, "dispatch"}} {
		if f.differs {
			fields = append(fields, f.name)
		}
	}
	r.First = append(r.First, Divergence{Inst: inst, Fields: fields, A: summarizeStep(Step{Ops: a}), B: summarizeStep(Step{Ops: b})})
}

// stepClass numbers the compared fields of a step's summary: two steps
// of the traces one diff compares differ in a field exactly when their
// classes for it do.
type stepClass struct{ work, fetch, dispatch uint32 }

// fieldClasses interns each field of the summaries of both arenas'
// dictionary entries, and returns each side's classes by step ID.
func fieldClasses(a, b *Arena) (ca, cb []stepClass) {
	type dispatch struct {
		dispatched     bool
		branch, target uint64
	}
	works, fetches := map[uint64]uint32{}, map[uint64]uint32{}
	dispatches := map[dispatch]uint32{}
	intern := func(dict [][]cpu.Op) []stepClass {
		out := make([]stepClass, len(dict))
		for k, ops := range dict {
			d := summarizeStep(Step{Ops: ops})
			out[k] = stepClass{
				work:     class(works, d.Work),
				fetch:    class(fetches, d.Fetch),
				dispatch: class(dispatches, dispatch{d.Dispatched, d.Branch, d.Target}),
			}
		}
		return out
	}
	return intern(a.dict), intern(b.dict)
}

// class returns v's number in m, adding it as the next one if new.
func class[V comparable](m map[V]uint32, v V) uint32 {
	c, ok := m[v]
	if !ok {
		c = uint32(len(m))
		m[v] = c
	}
	return c
}
