package cpu

import (
	"math"
	"testing"

	"vmopt/internal/btb"
)

func TestMachineByName(t *testing.T) {
	m, err := MachineByName("celeron-800")
	if err != nil {
		t.Fatalf("MachineByName: %v", err)
	}
	if m.BTBEntries != 512 {
		t.Errorf("celeron BTB entries = %d, want 512", m.BTBEntries)
	}
	if _, err := MachineByName("pdp-11"); err == nil {
		t.Error("unknown machine should error")
	}
}

func TestMachinesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Machines() {
		if seen[m.Name] {
			t.Errorf("duplicate machine name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestNewPredictorKinds(t *testing.T) {
	if _, ok := Celeron800.NewPredictor().(*btb.SetAssoc); !ok {
		t.Error("Celeron predictor should be a set-assoc BTB")
	}
	if _, ok := PentiumM.NewPredictor().(*btb.TwoLevel); !ok {
		t.Error("Pentium M predictor should be two-level")
	}
	m2 := Celeron800.WithPredictor(PredictBTB2bc)
	if _, ok := m2.NewPredictor().(*btb.TwoBit); !ok {
		t.Error("WithPredictor(BTB2bc) should build a two-bit BTB")
	}
	if m2.Name == Celeron800.Name {
		t.Error("WithPredictor should change the name")
	}
}

func TestWorkAccounting(t *testing.T) {
	s := NewSim(Celeron800)
	s.Work(100)
	if s.C.Instructions != 100 {
		t.Errorf("Instructions = %d, want 100", s.C.Instructions)
	}
	if math.Abs(s.C.Cycles-100) > 1e-9 {
		t.Errorf("Cycles = %v, want 100 (CPI=1)", s.C.Cycles)
	}

	p4 := NewSim(Pentium4Northwood)
	p4.Work(100)
	if math.Abs(p4.C.Cycles-70) > 1e-9 {
		t.Errorf("P4 cycles = %v, want 70 (CPI=0.7)", p4.C.Cycles)
	}
}

func TestIndirectPenalty(t *testing.T) {
	s := NewSim(Celeron800)
	s.Indirect(0x10, 0, 0x20) // cold -> mispredict: 10 cycles
	if s.C.Mispredicted != 1 || s.C.IndirectBranches != 1 {
		t.Fatalf("counters = %+v", s.C)
	}
	if math.Abs(s.C.Cycles-10) > 1e-9 {
		t.Errorf("Cycles = %v, want 10", s.C.Cycles)
	}
	s.Indirect(0x10, 0, 0x20) // now predicted: no extra cycles
	if math.Abs(s.C.Cycles-10) > 1e-9 {
		t.Errorf("Cycles after hit = %v, want 10", s.C.Cycles)
	}
}

func TestDispatchCountsDispatches(t *testing.T) {
	s := NewSim(Celeron800)
	s.Dispatch(0x10, 0, 0x20)
	s.Indirect(0x14, 0, 0x24)
	if s.C.Dispatches != 1 || s.C.IndirectBranches != 2 {
		t.Errorf("Dispatches=%d IndirectBranches=%d, want 1 and 2",
			s.C.Dispatches, s.C.IndirectBranches)
	}
}

func TestFetchMissPenalty(t *testing.T) {
	s := NewSim(Celeron800)
	s.Fetch(0x1000, 64) // 2 lines cold: 2 misses x 10 cycles
	if s.C.ICacheMisses != 2 {
		t.Errorf("ICacheMisses = %d, want 2", s.C.ICacheMisses)
	}
	if math.Abs(s.C.MissCycles-20) > 1e-9 || math.Abs(s.C.Cycles-20) > 1e-9 {
		t.Errorf("MissCycles=%v Cycles=%v, want 20/20", s.C.MissCycles, s.C.Cycles)
	}
	s.Fetch(0x1000, 64) // warm
	if s.C.ICacheMisses != 2 {
		t.Errorf("warm fetch should not miss, got %d", s.C.ICacheMisses)
	}
}

// TestAddCodeBytes: run-time generated code is counted and reaches
// the Sink.
func TestAddCodeBytes(t *testing.T) {
	s := NewSim(Celeron800)
	n := 0
	s.Sink = countingSink{&n}
	s.AddCodeBytes(190 * 1024)
	if s.C.CodeBytes != 190*1024 || n != 1 {
		t.Errorf("counters = %+v, %d Sink calls; want 1", s.C, n)
	}
}

func TestReset(t *testing.T) {
	s := NewSim(Celeron800)
	s.Work(5)
	s.Indirect(0x10, 0, 0x20)
	s.Fetch(0x1000, 4)
	s.Reset()
	if s.C.Cycles != 0 || s.C.Instructions != 0 || s.ic.Accesses != 0 {
		t.Errorf("Reset left state: %+v", s.C)
	}
	// Predictor must also be cold again.
	if s.Indirect(0x10, 0, 0x20) {
		t.Error("predictor should be cold after Reset")
	}
}

func TestSeconds(t *testing.T) {
	s := NewSim(Celeron800)
	s.C.Cycles = 800e6 // one second at 800MHz
	if got := s.Seconds(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Seconds = %v, want 1", got)
	}
	s.Machine.ClockMHz = 0
	if s.Seconds() != 0 {
		t.Error("Seconds with zero clock should be 0")
	}
}

// TestPentiumMPredictsInterpreterLoop verifies the Section 8 claim:
// a two-level predictor handles the dispatch pattern that defeats a
// BTB.
func TestPentiumMPredictsInterpreterLoop(t *testing.T) {
	run := func(m Machine) uint64 {
		s := NewSim(m)
		// A's dispatch branch alternates between two targets.
		for i := 0; i < 200; i++ {
			s.Indirect(0x100, 0, uint64(0x2000+(i%2)*0x100))
			s.Indirect(0x200, 0, 0x100) // B always returns to A
		}
		return s.C.Mispredicted
	}
	btbMisp := run(Celeron800)
	pmMisp := run(PentiumM)
	if pmMisp*4 > btbMisp {
		t.Errorf("Pentium M mispredictions = %d, want far below BTB's %d", pmMisp, btbMisp)
	}
}

// TestApplyMatchesPerEventCalls: the batched Apply entry point must
// accumulate exactly the counters of the equivalent per-event
// Work/Fetch/Dispatch calls — float cycle counters included, since
// trace replay's byte-identity guarantee rests on it — on every
// predictor kind and CPI regime.
func TestApplyMatchesPerEventCalls(t *testing.T) {
	var ops []Op
	addr := uint64(0x2000)
	for i := 0; i < 4096; i++ {
		switch i % 5 {
		case 0, 3:
			ops = append(ops, Op{Kind: OpWork, A: uint64(i % 37)})
		case 1, 4:
			addr += uint64(i%29) * 16
			ops = append(ops, Op{Kind: OpFetch, A: addr, B: uint64(8 + i%56)})
		default:
			ops = append(ops, Op{Kind: OpDispatch, A: addr + 32, B: uint64(i % 11), C: addr ^ uint64(i%3)<<7})
		}
	}
	machines := []Machine{
		Celeron800,
		Pentium4Northwood, // CPI 0.7: fractional cycle accumulation
		PentiumM,          // two-level predictor
		Celeron800.WithPredictor(PredictBTB2bc),
		Celeron800.WithPredictor(PredictCaseBlock), // operand-keyed
		Celeron800.WithBTBEntries(16),              // capacity-miss regime
	}
	for _, m := range machines {
		perCall := NewSim(m)
		for _, op := range ops {
			switch op.Kind {
			case OpWork:
				perCall.Work(int(op.A))
			case OpFetch:
				perCall.Fetch(op.A, int(op.B))
			case OpDispatch:
				perCall.Dispatch(op.A, op.B, op.C)
			}
		}
		batched := NewSim(m)
		// Split the batch to prove Apply composes like the call stream
		// does (replay applies one step after another on one sim).
		batched.Apply(ops[:len(ops)/3])
		batched.Apply(ops[len(ops)/3:])
		if batched.C != perCall.C {
			t.Errorf("%s: Apply diverged from per-event calls:\n  calls %+v\n  apply %+v",
				m.Name, perCall.C, batched.C)
		}
	}
}

// TestApplyIgnoresSink: Apply exists for replay, which must never
// re-record; an attached Sink stays silent.
func TestApplyIgnoresSink(t *testing.T) {
	s := NewSim(Celeron800)
	n := 0
	s.Sink = countingSink{&n}
	s.Apply([]Op{
		{Kind: OpWork, A: 5},
		{Kind: OpFetch, A: 0x2000, B: 16},
		{Kind: OpDispatch, A: 0x2040, B: 1, C: 0x2100},
	})
	if n != 0 {
		t.Errorf("Apply drove %d events into the Sink; replay must not re-record", n)
	}
	if s.C.Instructions != 5 || s.C.Dispatches != 1 || s.C.ICacheMisses == 0 {
		t.Errorf("Apply accounting wrong: %+v", s.C)
	}
}

// countingSink counts observed calls.
type countingSink struct{ n *int }

func (c countingSink) RecordStep([]Op)        { *c.n++ }
func (c countingSink) RecordCodeBytes(uint64) { *c.n++ }
