package cpu

import (
	"math"
	"reflect"

	"vmopt/internal/btb"
	"vmopt/internal/icache"
	"vmopt/internal/metrics"
)

// Sink observes the event stream an interpreter run feeds into a Sim,
// one VM instruction (a step) at a time.
//
// The stream is machine-independent: the interpreter core decides
// every argument from the VM program and the code-layout plan alone,
// and the Sim never feeds back into execution. Recording the stream
// once therefore suffices to reproduce the counters of the same run
// on any Machine (any predictor, BTB geometry, I-cache or penalty) by
// replaying it — see internal/disptrace.
type Sink interface {
	// RecordStep observes one VM instruction whose events are ops, in
	// the order Apply applies them. ops is not retained.
	RecordStep(ops []Op)
	// RecordCodeBytes observes AddCodeBytes(n).
	RecordCodeBytes(n uint64)
}

// StepSink is what a Sink may also implement to have steps recorded
// by ID. core.Run, given a Sink that implements it, interns the events
// of each distinct step once and then records one step ID per executed
// instruction, in batches; steps it does not lower still go through
// RecordStep.
type StepSink interface {
	// InternStep returns the ID of the step whose events are ops. ops
	// is not retained.
	InternStep(ops []Op) uint32
	// RecordSteps observes one VM instruction per ID: each ID stands
	// for RecordStep of the ops it was interned for. ids is not
	// retained.
	RecordSteps(ids []uint32)
}

// Sim is one simulated processor instance: predictor, I-cache and the
// accumulated counters. The interpreter core drives it with three
// event kinds: straight-line work, instruction fetch, and indirect
// branches.
type Sim struct {
	Machine Machine
	C       metrics.Counters

	// Sink, when non-nil, receives the events of every VM instruction
	// core.Run drives into the simulator (trace recording). It does
	// not alter accounting.
	Sink Sink

	// pred comes from Machine.NewPredictor and is never replaced, so
	// Indirect's type switch covers every predictor a Sim can hold.
	pred btb.Predictor
	ic   *icache.Cache

	// steps is the table of lowered steps the resident mode runs (see
	// BeginSteps), dests holds the recorded hint and target of each
	// step ApplySteps lowered, and next is the successor table it reads
	// its tokens with; all are rebuilt in place.
	steps []Step
	dests []dest
	next  []uint32
	res   resident
}

// NewSim builds a simulator for the machine.
func NewSim(m Machine) *Sim {
	s := &Sim{Machine: m, pred: m.NewPredictor(), ic: m.NewICache()}
	s.res.sa, _ = s.pred.(*btb.SetAssoc)
	return s
}

// Work retires n straight-line native instructions.
func (s *Sim) Work(n int) {
	s.C.Instructions += uint64(n)
	s.C.Cycles += float64(float64(n) * s.Machine.CPI)
}

// Fetch runs the byte range [addr, addr+size) through the I-cache and
// charges miss penalties.
func (s *Sim) Fetch(addr uint64, size int) {
	s.chargeMisses(s.ic.Touch(addr, size))
}

// chargeMisses accounts the I-cache misses of one fetch.
func (s *Sim) chargeMisses(misses int) {
	if misses > 0 {
		s.C.ICacheMisses += uint64(misses)
		penalty := float64(float64(misses) * s.Machine.ICacheMissPenalty)
		s.C.Cycles += penalty
		s.C.MissCycles += penalty
	}
}

// Indirect executes an indirect branch at address branch jumping to
// target; hint is the operand key for operand-indexed predictors. It
// reports whether the branch was predicted correctly.
func (s *Sim) Indirect(branch, hint, target uint64) bool {
	s.C.IndirectBranches++
	// One predictor access per branch: switching on the concrete type
	// turns the interface call into a direct one.
	var ok bool
	switch p := s.pred.(type) {
	case *btb.SetAssoc:
		ok = p.Access(branch, hint, target)
	case *btb.TwoBit:
		ok = p.Access(branch, hint, target)
	case *btb.TwoLevel:
		ok = p.Access(branch, hint, target)
	case *btb.CaseBlock:
		ok = p.Access(branch, hint, target)
	default:
		ok = p.Access(branch, hint, target)
	}
	if !ok {
		s.C.Mispredicted++
		s.C.Cycles += s.Machine.MispredictPenalty
	}
	return ok
}

// Dispatch is Indirect plus the dispatch counter (VM instruction
// dispatches are the indirect branches the paper's techniques target).
func (s *Sim) Dispatch(branch, hint, target uint64) bool {
	s.C.Dispatches++
	return s.Indirect(branch, hint, target)
}

// AddCodeBytes records run-time generated code (dynamic techniques).
func (s *Sim) AddCodeBytes(n uint64) {
	if s.Sink != nil {
		s.Sink.RecordCodeBytes(n)
	}
	s.C.CodeBytes += n
}

// OpKind classifies one batched replay event.
type OpKind uint8

const (
	// OpWork is Work(A).
	OpWork OpKind = iota
	// OpFetch is Fetch(A, B).
	OpFetch
	// OpDispatch is Dispatch(A, B, C).
	OpDispatch
)

// Op is one simulator event for Apply and ApplySteps. Ops are
// immutable shared data: a decoded trace's step dictionary is read by
// every machine's simulator at once, and each lowers it for itself
// (see ApplySteps).
type Op struct {
	A, B, C uint64
	Kind    OpKind
}

// Apply drives a batch of events through the simulator with exactly
// the accounting of per-event Work/Fetch/Dispatch calls — the same
// float additions in the same order, so replayed counters stay
// byte-identical to a direct run — in one call. The Sink is NOT
// observed: recording is core.Run's, and replaying must not re-record.
func (s *Sim) Apply(ops []Op) {
	c := &s.C
	cpi := s.Machine.CPI
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpWork:
			c.Instructions += op.A
			c.Cycles += float64(float64(int(op.A)) * cpi)
		case OpFetch:
			s.chargeMisses(s.ic.Touch(op.A, int(op.B)))
		case OpDispatch:
			c.Dispatches++
			s.Indirect(op.A, op.B, op.C)
		}
	}
}

// Reset clears counters, predictor and cache state, and the resident
// mode's span and exit counts. It keeps the buffers ApplySteps reuses,
// so a reset sim replays without allocating.
func (s *Sim) Reset() {
	s.C = metrics.Counters{}
	s.pred.Reset()
	s.ic.Reset()
	s.res.reset()
}

// SameState reports whether s and o hold the same counters, the float
// ones bit for bit, the same I-cache lines in the same LRU order with
// the same access and miss counts, and the same predictor state.
func (s *Sim) SameState(o *Sim) bool {
	a, b := s.C, o.C
	if math.Float64bits(a.Cycles) != math.Float64bits(b.Cycles) ||
		math.Float64bits(a.MissCycles) != math.Float64bits(b.MissCycles) {
		return false
	}
	a.Cycles, a.MissCycles, b.Cycles, b.MissCycles = 0, 0, 0, 0
	return a == b && reflect.DeepEqual(s.ic, o.ic) && reflect.DeepEqual(s.pred, o.pred)
}

// Seconds converts the accumulated cycles to seconds at the machine's
// clock rate.
func (s *Sim) Seconds() float64 {
	if s.Machine.ClockMHz == 0 {
		return 0
	}
	return s.C.Cycles / (s.Machine.ClockMHz * 1e6)
}
