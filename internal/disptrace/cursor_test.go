package disptrace_test

import (
	"math/rand"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
)

// event is one simulator event, or a step boundary, for building
// steps in tests.
type event struct {
	kind    byte // 0 work, 1 fetch, 2 dispatch, 3 step boundary
	a, b, c uint64
}

// splitSteps groups an event stream into the per-instruction op
// slices a cursor must reproduce exactly: each boundary starts a step,
// and events before the first boundary join the first step.
func splitSteps(evs []event) [][]cpu.Op {
	var steps [][]cpu.Op
	var cur []cpu.Op
	started := false
	for _, e := range evs {
		switch e.kind {
		case 0:
			cur = append(cur, cpu.Op{Kind: cpu.OpWork, A: e.a})
		case 1:
			cur = append(cur, cpu.Op{Kind: cpu.OpFetch, A: e.a, B: e.b})
		case 2:
			cur = append(cur, cpu.Op{Kind: cpu.OpDispatch, A: e.a, B: e.b, C: e.c})
		case 3:
			if started {
				steps, cur = append(steps, cur), nil
			}
			started = true
		}
	}
	if started {
		steps = append(steps, cur)
	}
	return steps
}

// drainSteps walks a cursor to the end, copying each step.
func drainSteps(t *testing.T, c *disptrace.Cursor) []disptrace.Step {
	t.Helper()
	var out []disptrace.Step
	for {
		st, ok := c.Next()
		if !ok {
			break
		}
		st.Ops = append([]cpu.Op(nil), st.Ops...)
		out = append(out, st)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return out
}

func opsEqual(a, b []cpu.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stepEvents builds a deterministic pseudo-interpreter stream: nInsts
// instructions in engine shape (a boundary first, then work/fetch, then
// either a dispatch pair or trailing work), with occasional quickening
// work and empty instructions thrown in.
func stepEvents(nInsts int, seed int64) []event {
	rng := rand.New(rand.NewSource(seed))
	var evs []event
	addr := uint64(0x2000)
	for range nInsts {
		evs = append(evs, event{kind: 3})
		if rng.Intn(17) == 0 {
			evs = append(evs, event{kind: 0, a: uint64(rng.Intn(300))}) // quickening work
		}
		evs = append(evs, event{kind: 0, a: uint64(rng.Intn(9))})
		evs = append(evs, event{kind: 1, a: addr, b: uint64(4 + rng.Intn(28))})
		if rng.Intn(3) == 0 {
			evs = append(evs, event{kind: 0, a: uint64(rng.Intn(5))}) // fall-through
		} else {
			branch := addr + 40
			target := uint64(0x2000 + rng.Intn(97)*64)
			evs = append(evs,
				event{kind: 0, a: uint64(rng.Intn(4))},
				event{kind: 1, a: branch, b: 8},
				event{kind: 2, a: branch, b: uint64(rng.Intn(255)), c: target})
			addr = target
		}
		addr += uint64(rng.Intn(64))
	}
	return evs
}

// cursorTraceForms returns the same stream in every form a cursor
// can meet: the writer's trace and the trace decoded from its
// encoding.
func cursorTraceForms(t *testing.T, tr *disptrace.Trace) map[string]*disptrace.Trace {
	t.Helper()
	dec, err := disptrace.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*disptrace.Trace{"mem": tr, "wire": dec}
}

// TestCursorStepsMatchStream: on a writer-produced stream in engine
// shape, every trace form yields the recorded steps exactly,
// NextBatch reproduces the full stream, and NextBatch after Next
// resumes at the next step.
func TestCursorStepsMatchStream(t *testing.T) {
	want := splitSteps(stepEvents(10000, 7))
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, want...)
	tr := w.Trace()
	if uint64(len(want)) != tr.Header.VMInstructions {
		t.Fatalf("ground truth has %d steps, header says %d", len(want), tr.Header.VMInstructions)
	}

	for name, form := range cursorTraceForms(t, tr) {
		got := drainSteps(t, disptrace.NewCursor(form))
		if len(got) != len(want) {
			t.Fatalf("%s: cursor found %d steps, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != uint64(i) {
				t.Fatalf("%s: step %d carries index %d", name, i, got[i].Index)
			}
			if !opsEqual(got[i].Ops, want[i]) {
				t.Fatalf("%s: step %d ops diverged:\n  got  %+v\n  want %+v", name, i, got[i].Ops, want[i])
			}
		}

		// NextBatch covers the entire stream in order, over several
		// batches.
		c := disptrace.NewCursor(form)
		var all []cpu.Op
		batches := 0
		for {
			batch, ok := c.NextBatch(nil)
			if !ok {
				break
			}
			all = append(all, batch...)
			batches++
		}
		if !opsEqual(all, slices.Concat(want...)) {
			t.Fatalf("%s: NextBatch stream diverged from the recorded events", name)
		}
		if batches < 2 {
			t.Fatalf("%s: NextBatch delivered the stream in %d batch(es)", name, batches)
		}

		// NextBatch after three Next calls starts at step 3; mixing
		// steps and batches loses nothing.
		c = disptrace.NewCursor(form)
		for range 3 {
			c.Next()
		}
		batch, ok := c.NextBatch(nil)
		var wantBatch []cpu.Op
		for _, st := range want[3:min(len(want), 3+len(batch))] {
			wantBatch = append(wantBatch, st...)
		}
		if !ok || len(batch) == 0 || !opsEqual(batch, wantBatch[:len(batch)]) {
			t.Fatalf("%s: NextBatch after three steps does not start at step 3", name)
		}
	}
}

// TestCursorSpanningStep: one instruction whose events span hundreds
// of ops is one dictionary entry, and the cursor returns it whole on
// every trace form.
func TestCursorSpanningStep(t *testing.T) {
	var evs []event
	evs = append(evs, event{kind: 3})
	evs = append(evs, event{kind: 0, a: 1}, event{kind: 1, a: 0x2000, b: 8}, event{kind: 0, a: 2})
	evs = append(evs, event{kind: 3})
	for i := range 700 {
		evs = append(evs, event{kind: 2, a: uint64(0x3000 + i*8), b: uint64(i), c: uint64(0x4000 + i*16)})
	}
	want := splitSteps(evs)
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, want...)
	tr := w.Trace()

	for name, form := range cursorTraceForms(t, tr) {
		got := drainSteps(t, disptrace.NewCursor(form))
		if len(got) != len(want) {
			t.Fatalf("%s: %d steps, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !opsEqual(got[i].Ops, want[i]) {
				t.Fatalf("%s: step %d diverged (%d ops vs %d)", name, i, len(got[i].Ops), len(want[i]))
			}
		}
	}
}

// TestCursorEmptySteps: instructions that produce no events at all
// (and trailing instructions after the last event) still appear as
// empty steps at the right indices.
func TestCursorEmptySteps(t *testing.T) {
	evs := []event{
		{kind: 3},
		{kind: 3}, // empty instruction
		{kind: 0, a: 5},
		{kind: 3}, // trailing, no events follow
		{kind: 3},
	}
	want := splitSteps(evs)
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, want...)
	tr := w.Trace()
	for name, form := range cursorTraceForms(t, tr) {
		got := drainSteps(t, disptrace.NewCursor(form))
		if len(got) != len(want) {
			t.Fatalf("%s: %d steps, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !opsEqual(got[i].Ops, want[i]) {
				t.Fatalf("%s: step %d: got %+v want %+v", name, i, got[i].Ops, want[i])
			}
		}
	}
}

// TestCursorRealTrace: on a real recorded dispatch stream, the cursor
// yields exactly Header.VMInstructions steps whose ops concatenate to
// the full stream, in every trace form.
func TestCursorRealTrace(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	full := streamOps(tr)
	for name, form := range cursorTraceForms(t, tr) {
		steps := drainSteps(t, disptrace.NewCursor(form))
		if uint64(len(steps)) != tr.Header.VMInstructions {
			t.Fatalf("%s: cursor found %d steps, header says %d VM instructions",
				name, len(steps), tr.Header.VMInstructions)
		}
		var cat []cpu.Op
		for _, st := range steps {
			cat = append(cat, st.Ops...)
		}
		if !opsEqual(cat, full) {
			t.Fatalf("%s: concatenated steps diverge from the full stream (%d vs %d ops)", name, len(cat), len(full))
		}
		// Every engine step fetches, and its summaries are coherent.
		for _, st := range steps {
			if _, ok := st.Fetch(); !ok {
				t.Fatalf("%s: step %d has no fetch", name, st.Index)
			}
		}
	}
}
