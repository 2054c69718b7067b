package disptrace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
)

// eventsFromBytes derives a bounded event stream from raw fuzz input:
// each event consumes a kind byte plus up to three 8-byte values, so
// the fuzzer steers kinds, magnitudes, deltas and step boundaries
// (kind 3, see splitSteps) freely. Kind 4 repeats the last few steps a
// number of times, as an interpreter loop does, so streams hold runs
// of follows as well as explicit step IDs.
func eventsFromBytes(data []byte) []event {
	const maxEvents = 1 << 12
	var evs []event
	// starts holds the index of every step boundary in evs.
	var starts []int
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
		kind := data[0] % 5
		data = data[1:]
		switch kind {
		case 0:
			evs = append(evs, event{kind: 0, a: u64()})
		case 1:
			// Sizes fall about half under MaxFetchBytes, which
			// round-trip, and half over it, which Decode refuses.
			evs = append(evs, event{kind: 1, a: u64(), b: u64() % (2 * disptrace.MaxFetchBytes)})
		case 2:
			evs = append(evs, event{kind: 2, a: u64(), b: u64(), c: u64()})
		case 3:
			starts = append(starts, len(evs))
			evs = append(evs, event{kind: 3})
		case 4:
			if len(starts) == 0 || len(data) == 0 {
				continue
			}
			back, times := 1+int(data[0]%8), 1+int(data[0]>>3)
			data = data[1:]
			loop := evs[starts[max(0, len(starts)-back)]:]
			for range times {
				if len(evs)+len(loop) > 4*maxEvents {
					break
				}
				for _, e := range loop {
					if e.kind == 3 {
						starts = append(starts, len(evs))
					}
					evs = append(evs, e)
				}
			}
		}
	}
	return evs
}

// loopSeed is a fuzz input of three dispatching steps run as a loop:
// eventsFromBytes repeats the last two steps 16 times, then the last
// eight 32 times.
var loopSeed = slices.Concat(
	[]byte{3, 2}, bytes.Repeat([]byte{0x11}, 24),
	[]byte{3, 2}, bytes.Repeat([]byte{0x22}, 24),
	[]byte{3, 2}, bytes.Repeat([]byte{0x33}, 24),
	[]byte{4, 0x79, 4, 0xff},
)

// fuzzHeader is the header of the fuzzers' recordings: eventsFromBytes
// yields at most 1<<14 events, so at most that many steps.
func fuzzHeader(workload string) disptrace.Header {
	return disptrace.Header{Workload: workload, Lang: "forth", MaxSteps: 1 << 14}
}

// oversized reports whether steps hold a fetch above
// disptrace.MaxFetchBytes, which Decode refuses.
func oversized(steps [][]cpu.Op) bool {
	for _, ops := range steps {
		for _, op := range ops {
			if op.Kind == cpu.OpFetch && op.B > disptrace.MaxFetchBytes {
				return true
			}
		}
	}
	return false
}

// walkSteps advances a cursor to the end without copying its steps:
// a decoded trace may repeat a large dictionary entry many times.
func walkSteps(c *disptrace.Cursor) {
	for {
		if _, ok := c.Next(); !ok {
			return
		}
	}
}

// FuzzTraceRoundTrip checks the codec guarantees the subsystem rests
// on: (1) arbitrary bytes fed to Decode — corrupt headers,
// dictionaries and ID streams included — produce an error or a valid
// trace, never a panic; (2) arbitrary bytes spliced in as the flate
// ID stream of a valid trace error cleanly or decode to in-range
// IDs; and (3) any event stream encodes and decodes back bit-exactly,
// to the writer's resident form and to the same bytes — or, when it
// holds a fetch above MaxFetchBytes, fails to decode with
// ErrFetchTooLarge.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{2, 0xff}, 64)) // dispatch-heavy
	f.Add(loopSeed)
	// Valid encoded traces as seeds for the raw-decode arm: one step,
	// and repeating steps.
	{
		w := disptrace.NewWriter(fuzzHeader("seed"))
		recordSteps(w, []cpu.Op{{Kind: cpu.OpWork, A: 7}, {Kind: cpu.OpFetch, A: 0x2000, B: 16},
			{Kind: cpu.OpDispatch, A: 0x2040, B: 3, C: 0x2100}})
		f.Add(w.Trace().Encode())
	}
	{
		w := disptrace.NewWriter(fuzzHeader("seed"))
		recordSteps(w, splitSteps(stepEvents(64, 1))...)
		f.Add(w.Trace().Encode())
	}

	base := func() []byte {
		w := disptrace.NewWriter(fuzzHeader("base"))
		recordSteps(w, splitSteps(stepEvents(16, 2))...)
		return w.Trace().Encode()
	}()

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arm 1: raw bytes into Decode — must never panic; on
		// success the decoded trace must re-encode to an equal trace
		// (not necessarily the same bytes: DEFLATE has many encodings
		// of one stream) and walk without panicking.
		if tr, err := disptrace.Decode(data); err == nil {
			again, err := disptrace.Decode(tr.Encode())
			if err != nil || !reflect.DeepEqual(again, tr) {
				t.Fatalf("re-encoding a decoded trace broke it: %v", err)
			}
			_ = tr.Verify()
			walkSteps(disptrace.NewCursor(tr))
		}

		// Arm 2: raw bytes as the flate ID stream of a valid trace,
		// under several declared raw lengths — garbled or truncated
		// DEFLATE, lying lengths and out-of-range IDs must error, not
		// panic.
		p := splitTrace(t, base)
		for _, raw := range []uint64{0, 1, 16, 64, 1 << 16} {
			p.rawLen, p.stream = raw, data
			if tr, err := disptrace.Decode(p.join()); err == nil {
				walkSteps(disptrace.NewCursor(tr))
			}
		}

		// Arm 3: structured round trip — bit-exact.
		steps := splitSteps(eventsFromBytes(data))
		w := disptrace.NewWriter(fuzzHeader("fuzz"))
		recordSteps(w, steps...)
		tr := w.Trace()
		if err := tr.Verify(); err != nil {
			t.Fatalf("writer produced inconsistent totals: %v", err)
		}
		enc := tr.Encode()
		back, err := disptrace.Decode(enc)
		if oversized(steps) {
			if !errors.Is(err, disptrace.ErrFetchTooLarge) {
				t.Fatalf("decoding a fetch above MaxFetchBytes: err %v, want ErrFetchTooLarge", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("decoded trace differs from the writer's:\n  got  %+v\n  want %+v", back, tr)
		}
		if !bytes.Equal(back.Encode(), enc) {
			t.Fatal("re-encoding the decoded trace changed its bytes")
		}
		if got, want := streamOps(back), slices.Concat(steps...); !slices.Equal(got, want) {
			t.Fatalf("stream round trip: got %d ops, want %d", len(got), len(want))
		}
	})
}

// FuzzCursor feeds arbitrary event streams (instruction marks
// included) through the writer and the wire format: cursors must
// reproduce the ground-truth instruction grouping exactly, and a
// corrupted encoding (one byte at mutAt flipped by mutByte) must error
// at Decode or iterate cleanly, never panic. A stream with
// a fetch above MaxFetchBytes must fail to decode with
// ErrFetchTooLarge; its in-memory form is still checked.
func FuzzCursor(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{3, 0, 1, 1, 2, 3, 0, 3, 3}, uint16(2), byte(1))
	f.Add(bytes.Repeat([]byte{3, 2, 0xff}, 50), uint16(25), byte(0))
	f.Add(loopSeed, uint16(40), byte(2))

	f.Fuzz(func(t *testing.T, data []byte, mutAt uint16, mutByte byte) {
		want := splitSteps(eventsFromBytes(data))
		w := disptrace.NewWriter(fuzzHeader("fuzz"))
		recordSteps(w, want...)
		tr := w.Trace()

		enc := tr.Encode()
		forms := map[string]*disptrace.Trace{"mem": tr}
		dec, err := disptrace.Decode(enc)
		switch {
		case oversized(want):
			if !errors.Is(err, disptrace.ErrFetchTooLarge) {
				t.Fatalf("decoding a fetch above MaxFetchBytes: err %v, want ErrFetchTooLarge", err)
			}
		case err != nil:
			t.Fatalf("decoding own encoding: %v", err)
		default:
			forms["wire"] = dec
		}
		for name, form := range forms {
			steps := drainSteps(t, disptrace.NewCursor(form))
			// The grouping is exact for arbitrary streams.
			if len(steps) != len(want) {
				t.Fatalf("%s: %d steps, want %d", name, len(steps), len(want))
			}
			for i := range want {
				if steps[i].Index != uint64(i) || !opsEqual(steps[i].Ops, want[i]) {
					t.Fatalf("%s: step %d diverged", name, i)
				}
			}
		}

		// Mutate one byte of the encoding (checksum repaired): decode
		// must reject it or the cursor must survive it.
		mut := append([]byte(nil), enc...)
		pos := 10 + int(mutAt)%(len(mut)-10)
		mut[pos] ^= mutByte | 1
		fixCRC(mut)
		if dec, err := disptrace.Decode(mut); err == nil {
			walkSteps(disptrace.NewCursor(dec))
			disptrace.NewCursor(dec).NextBatch(nil)
		}
	})
}
