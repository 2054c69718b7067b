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
	// not mean equal steps — so each side summarizes its own
	// dictionary once, and the walk compares summaries looked up by
	// each side's ID.
	sa, sb := a.arena.summaries(), b.arena.summaries()
	ia, ib := a.arena.ids, b.arena.ids
	n := min(len(ia), len(ib))
	r.AInsts, r.BInsts, r.Compared = uint64(len(ia)), uint64(len(ib)), uint64(n)
	for i := range n {
		da, db := &sa[ia[i]], &sb[ib[i]]
		if *da == *db {
			continue
		}
		work := da.Work != db.Work
		fetch := da.Fetch != db.Fetch
		dispatch := da.Dispatched != db.Dispatched || da.Branch != db.Branch || da.Target != db.Target
		if work {
			r.WorkDiffs++
		}
		if fetch {
			r.FetchDiffs++
		}
		if dispatch {
			r.DispatchDiffs++
		}
		if r.Divergences == 0 {
			r.FirstDivergence = int64(i)
		}
		r.Divergences++
		if len(r.First) < maxDetail {
			var fields []string
			for _, f := range []struct {
				differs bool
				name    string
			}{{work, "work"}, {fetch, "fetch"}, {dispatch, "dispatch"}} {
				if f.differs {
					fields = append(fields, f.name)
				}
			}
			r.First = append(r.First, Divergence{Inst: uint64(i), Fields: fields, A: *da, B: *db})
		}
	}
	r.Identical = r.Divergences == 0 && r.AInsts == r.BInsts
	return r, nil
}

// summaries condenses every dictionary entry for comparison, indexed
// by step ID.
func (a *Arena) summaries() []StepDiff {
	out := make([]StepDiff, len(a.dict))
	for k, ops := range a.dict {
		out[k] = summarizeStep(Step{Ops: ops})
	}
	return out
}
