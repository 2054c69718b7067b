package disptrace_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
)

// event is one sink call for driving a Writer in tests.
type event struct {
	kind    byte // 0 work, 1 fetch, 2 dispatch, 3 vminst
	a, b, c uint64
}

func feedEvents(w *disptrace.Writer, evs []event) {
	for _, e := range evs {
		switch e.kind {
		case 0:
			w.RecordWork(int(e.a))
		case 1:
			w.RecordFetch(e.a, int(e.b))
		case 2:
			w.RecordDispatch(e.a, e.b, e.c)
		case 3:
			w.RecordVMInst()
		}
	}
}

// groundTruthSteps groups an event stream into the per-instruction op
// slices a cursor over a v3 trace must reproduce exactly: events
// after the k-th RecordVMInst and before the k+1-th belong to step k;
// events before the first RecordVMInst belong to no step.
func groundTruthSteps(evs []event) [][]cpu.Op {
	var steps [][]cpu.Op
	started := false
	for _, e := range evs {
		switch e.kind {
		case 3:
			steps = append(steps, []cpu.Op{})
			started = true
		case 0:
			if started {
				steps[len(steps)-1] = append(steps[len(steps)-1], cpu.Op{Kind: cpu.OpWork, A: e.a})
			}
		case 1:
			if started {
				steps[len(steps)-1] = append(steps[len(steps)-1], cpu.Op{Kind: cpu.OpFetch, A: e.a, B: e.b})
			}
		case 2:
			if started {
				steps[len(steps)-1] = append(steps[len(steps)-1], cpu.Op{Kind: cpu.OpDispatch, A: e.a, B: e.b, C: e.c})
			}
		}
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

// fullOps decodes the whole trace through the public segment decoder.
func fullOps(t *testing.T, tr *disptrace.Trace) []cpu.Op {
	t.Helper()
	var ops []cpu.Op
	for _, s := range tr.Segs {
		var err error
		if ops, err = s.DecodeOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	return ops
}

// stepEvents builds a deterministic pseudo-interpreter stream: nInsts
// instructions in engine shape (VMInst first, then work/fetch, then
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
// can meet: the in-memory writer trace, and traces decoded from its
// compressed and its raw-codec encodings.
func cursorTraceForms(t *testing.T, tr *disptrace.Trace) map[string]*disptrace.Trace {
	t.Helper()
	forms := map[string]*disptrace.Trace{"mem": tr}
	for name, enc := range map[string][]byte{
		"flate": tr.Encode(),
		"raw":   tr.EncodeCodec(disptrace.CodecRaw),
	} {
		dec, err := disptrace.Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		forms[name] = dec
	}
	return forms
}

// TestCursorStepsMatchStream: on a writer-produced stream in engine
// shape, every trace form yields the ground-truth steps exactly,
// NextBatch reproduces the full decode, and Seek agrees with a full
// walk from every sampled seek point.
func TestCursorStepsMatchStream(t *testing.T) {
	evs := stepEvents(2000, 7)
	w := disptrace.NewWriter(testHeader())
	disptrace.SetWriterSegLimit(w, 128) // force many segments
	feedEvents(w, evs)
	tr := w.Trace()
	want := groundTruthSteps(evs)
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

		// NextBatch covers the entire stream in order.
		c := disptrace.NewCursor(form)
		var all []cpu.Op
		for {
			batch, ok := c.NextBatch(nil)
			if !ok {
				break
			}
			all = append(all, batch...)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("%s: NextBatch: %v", name, err)
		}
		if !opsEqual(all, fullOps(t, form)) {
			t.Fatalf("%s: NextBatch stream diverged from full decode", name)
		}

		// Seek from sampled points, including boundaries, equals the
		// suffix of the full walk; seeking past the end is empty.
		c = disptrace.NewCursor(form)
		for _, at := range []uint64{0, 1, 127, 128, 129, 1000, uint64(len(want) - 1), uint64(len(want)), uint64(len(want)) + 5} {
			if err := c.Seek(at); err != nil {
				t.Fatalf("%s: Seek(%d): %v", name, at, err)
			}
			rest := drainSteps(t, c)
			wantRest := 0
			if at < uint64(len(want)) {
				wantRest = len(want) - int(at)
			}
			if len(rest) != wantRest {
				t.Fatalf("%s: Seek(%d) drained %d steps, want %d", name, at, len(rest), wantRest)
			}
			for k, st := range rest {
				i := int(at) + k
				if st.Index != uint64(i) || !opsEqual(st.Ops, want[i]) {
					t.Fatalf("%s: Seek(%d): step %d wrong", name, at, i)
				}
			}
		}
	}
}

// TestCursorSpanningStep: a stream that stops reporting instructions
// mid-way forces the writer's mid-instruction hard seal, so one step's
// records span several segments; the cursor must stitch them back
// together on every trace form.
func TestCursorSpanningStep(t *testing.T) {
	var evs []event
	evs = append(evs, event{kind: 3})
	evs = append(evs, event{kind: 0, a: 1}, event{kind: 1, a: 0x2000, b: 8}, event{kind: 0, a: 2})
	evs = append(evs, event{kind: 3})
	// A huge instruction: hundreds of unfusable dispatch records with
	// no further VMInst, overflowing several segments.
	for i := range 700 {
		evs = append(evs, event{kind: 2, a: uint64(0x3000 + i*8), b: uint64(i), c: uint64(0x4000 + i*16)})
	}
	w := disptrace.NewWriter(testHeader())
	disptrace.SetWriterSegLimit(w, 64)
	feedEvents(w, evs)
	tr := w.Trace()
	if len(tr.Segs) < 3 {
		t.Fatalf("expected the giant step to span segments, got %d", len(tr.Segs))
	}
	want := groundTruthSteps(evs)

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
// (and trailing instructions after the last record) still appear as
// empty steps at the right indices in a v3 trace.
func TestCursorEmptySteps(t *testing.T) {
	evs := []event{
		{kind: 3},
		{kind: 3}, // empty instruction
		{kind: 0, a: 5},
		{kind: 3}, // trailing, no records follow
		{kind: 3},
	}
	w := disptrace.NewWriter(testHeader())
	feedEvents(w, evs)
	tr := w.Trace()
	dec, err := disptrace.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for name, form := range map[string]*disptrace.Trace{"mem": tr, "v3": dec} {
		got := drainSteps(t, disptrace.NewCursor(form))
		want := groundTruthSteps(evs)
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
// the full decode, in every trace form.
func TestCursorRealTrace(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	full := fullOps(t, tr)
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
			t.Fatalf("%s: concatenated steps diverge from full decode (%d vs %d ops)", name, len(cat), len(full))
		}
		// Every engine step fetches, and its summaries are coherent.
		for _, st := range steps {
			if _, ok := st.Fetch(); !ok {
				t.Fatalf("%s: step %d has no fetch", name, st.Index)
			}
		}
		// Seek into the middle matches the sequential walk.
		mid := uint64(len(steps) / 2)
		c := disptrace.NewCursor(form)
		if err := c.Seek(mid); err != nil {
			t.Fatal(err)
		}
		st, ok := c.Next()
		if !ok || st.Index != mid || !opsEqual(st.Ops, steps[mid].Ops) {
			t.Fatalf("%s: Seek(%d) returned wrong step", name, mid)
		}
	}
}

// TestCursorCorruptStepTable: damaged step-table bytes — in the wire
// index or on a hand-built segment — must produce a decode error,
// never a panic or a silent misparse.
func TestCursorCorruptStepTable(t *testing.T) {
	evs := stepEvents(400, 3)
	w := disptrace.NewWriter(testHeader())
	disptrace.SetWriterSegLimit(w, 64)
	feedEvents(w, evs)
	tr := w.Trace()
	enc := tr.Encode()

	// The step tables are the trailing region of the file; corrupting
	// bytes there (with the checksum fixed up) must fail Decode's
	// table validation or, at worst, leave a trace whose cursor errors
	// cleanly.
	for _, off := range []int{1, 2, 3, 5, 8, 13} {
		mut := append([]byte(nil), enc...)
		mut[len(mut)-off] ^= 0x5a
		fixCRC(mut)
		dec, err := disptrace.Decode(mut)
		if err != nil {
			continue // rejected at decode: good
		}
		c := disptrace.NewCursor(dec)
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
		_ = c.Err() // error or clean end; the point is no panic
	}

	// A hand-built segment with garbage step bytes errors from the
	// cursor (it cannot be rejected earlier: no decode saw it).
	bad := &disptrace.Trace{Header: tr.Header, Segs: append([]disptrace.Segment(nil), tr.Segs...)}
	bad.Segs[0].Steps = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	c := disptrace.NewCursor(bad)
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if c.Err() == nil {
		t.Error("garbage step table iterated cleanly")
	}
	if err := c.Seek(1); err == nil && c.Err() == nil {
		t.Error("garbage step table sought cleanly")
	}
}

// FuzzCursor feeds arbitrary event streams (instruction marks
// included) and seek points through the writer and both codecs:
// cursors must reproduce the ground-truth instruction grouping
// exactly, Seek must agree with a full walk, and corrupted
// step-table bytes must error, never panic.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{3, 0, 1, 1, 2, 3, 0, 3, 3}, uint16(2), byte(1))
	f.Add(bytes.Repeat([]byte{3, 2, 0xff}, 50), uint16(25), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, seekAt uint16, mutByte byte) {
		const maxEvents = 1 << 10
		var evs []event
		u64 := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			var buf [8]byte
			n := copy(buf[:], data)
			data = data[n:]
			return binary.LittleEndian.Uint64(buf[:])
		}
		for len(data) > 0 && len(evs) < maxEvents {
			kind := data[0] % 4
			data = data[1:]
			switch kind {
			case 0:
				evs = append(evs, event{kind: 0, a: u64() >> 1})
			case 1:
				evs = append(evs, event{kind: 1, a: u64(), b: u64() >> 1})
			case 2:
				evs = append(evs, event{kind: 2, a: u64(), b: u64(), c: u64()})
			case 3:
				evs = append(evs, event{kind: 3})
			}
		}

		w := disptrace.NewWriter(disptrace.Header{Workload: "fuzz", Lang: "forth"})
		disptrace.SetWriterSegLimit(w, 32)
		feedEvents(w, evs)
		tr := w.Trace()

		want := groundTruthSteps(evs)
		forms := map[string]*disptrace.Trace{"mem": tr}
		for name, enc := range map[string][]byte{
			"flate": tr.Encode(),
			"raw":   tr.EncodeCodec(disptrace.CodecRaw),
		} {
			dec, err := disptrace.Decode(enc)
			if err != nil {
				t.Fatalf("decoding own %s encoding: %v", name, err)
			}
			forms[name] = dec
		}

		for name, form := range forms {
			c := disptrace.NewCursor(form)
			var steps []disptrace.Step
			for {
				st, ok := c.Next()
				if !ok {
					break
				}
				st.Ops = append([]cpu.Op(nil), st.Ops...)
				steps = append(steps, st)
				if len(steps) > maxEvents+1 {
					t.Fatalf("%s: cursor runs away (%d steps)", name, len(steps))
				}
			}
			if err := c.Err(); err != nil {
				t.Fatalf("%s: cursor error on a writer-produced trace: %v", name, err)
			}
			// The grouping is exact for arbitrary streams.
			if len(steps) != len(want) {
				t.Fatalf("%s: %d steps, want %d", name, len(steps), len(want))
			}
			for i := range want {
				if steps[i].Index != uint64(i) || !opsEqual(steps[i].Ops, want[i]) {
					t.Fatalf("%s: step %d diverged", name, i)
				}
			}
			// Seek then drain equals the full walk's suffix — the
			// seekability contract, in every form.
			at := uint64(seekAt)
			c = disptrace.NewCursor(form)
			if err := c.Seek(at); err != nil {
				t.Fatalf("%s: Seek(%d): %v", name, at, err)
			}
			k := int(at)
			for {
				st, ok := c.Next()
				if !ok {
					break
				}
				if k >= len(steps) {
					t.Fatalf("%s: Seek(%d) yielded extra steps", name, at)
				}
				if st.Index != steps[k].Index || !opsEqual(st.Ops, steps[k].Ops) {
					t.Fatalf("%s: Seek(%d): step %d diverged from full walk", name, at, k)
				}
				k++
			}
			if c.Err() != nil {
				t.Fatalf("%s: Seek-drain error: %v", name, c.Err())
			}
			if at < uint64(len(steps)) && k != len(steps) {
				t.Fatalf("%s: Seek(%d) drained to %d of %d steps", name, at, k, len(steps))
			}
		}

		// Mutate one byte of the encoding (checksum repaired):
		// decode must reject it or the cursor must survive it.
		enc := tr.Encode()
		if len(enc) > 10 {
			mut := append([]byte(nil), enc...)
			pos := 10 + int(seekAt)%(len(mut)-10)
			mut[pos] ^= mutByte | 1
			fixCRC(mut)
			if dec, err := disptrace.Decode(mut); err == nil {
				c := disptrace.NewCursor(dec)
				for i := 0; i < maxEvents+2; i++ {
					if _, ok := c.Next(); !ok {
						break
					}
				}
				_ = c.Seek(uint64(seekAt))
			}
		}
	})
}
