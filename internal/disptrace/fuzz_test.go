package disptrace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vmopt/internal/disptrace"
)

// recordsFromBytes derives a bounded record stream from raw fuzz
// input: each record consumes a kind byte plus up to three 8-byte
// values, so the fuzzer steers kinds, magnitudes and deltas freely.
func recordsFromBytes(data []byte) []disptrace.Record {
	const maxRecords = 1 << 12
	var recs []disptrace.Record
	u64 := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		var buf [8]byte
		n := copy(buf[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	for len(data) > 0 && len(recs) < maxRecords {
		kind := data[0] % 3
		data = data[1:]
		switch disptrace.Kind(kind) {
		case disptrace.KWork:
			// RecordWork takes an int and clamps negatives to 0;
			// stay in the non-negative int range so the round trip
			// is exact.
			recs = append(recs, disptrace.Record{Kind: disptrace.KWork, A: u64() >> 1})
		case disptrace.KFetch:
			recs = append(recs, disptrace.Record{Kind: disptrace.KFetch, A: u64(), B: u64() >> 1})
		default:
			recs = append(recs, disptrace.Record{Kind: disptrace.KDispatch, A: u64(), B: u64(), C: u64()})
		}
	}
	return recs
}

// FuzzTraceRoundTrip checks the codec guarantees the subsystem rests
// on: (1) any record stream encodes and decodes back bit-exactly
// through the compressed form, (2) arbitrary bytes — corrupt
// headers and flate payloads included — fed to Decode produce an
// error or a valid trace, never a panic, and (3) arbitrary bytes
// interpreted as a compressed segment payload error cleanly out of
// both segment decoders.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{2, 0xff}, 64)) // dispatch-heavy
	// Valid encoded traces as seeds for the raw-decode arm: the
	// compressed form and the raw-codec form.
	{
		w := disptrace.NewWriter(disptrace.Header{Workload: "seed", Lang: "forth"})
		w.RecordWork(7)
		w.RecordFetch(0x2000, 16)
		w.RecordDispatch(0x2040, 3, 0x2100)
		f.Add(w.Trace().Encode())
		f.Add(w.Trace().EncodeCodec(disptrace.CodecRaw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arm 1: raw bytes into Decode — must never panic; on
		// success the decoded trace must re-encode decodable.
		if tr, err := disptrace.Decode(data); err == nil {
			if _, err := tr.Records(); err != nil {
				// A checksum-valid trace with undecodable segments is
				// possible for fuzz-built files; it must error
				// cleanly, which it just did.
				_ = err
			}
			if _, err := disptrace.Decode(tr.Encode()); err != nil {
				t.Fatalf("re-encoding a decoded trace broke it: %v", err)
			}
		}

		// Arm 2: raw bytes as a flate segment payload — truncated or
		// garbled DEFLATE streams and lying raw sizes must error, not
		// panic, from both segment decoders.
		for _, rawBytes := range []int{0, 1, 64, 1 << 16} {
			seg := disptrace.Segment{
				Data:     data,
				Records:  len(data)/4 + 1,
				Codec:    disptrace.CodecFlate,
				RawBytes: rawBytes,
			}
			if recs, err := seg.Decode(nil); err == nil {
				_ = recs // a fuzz-built payload that inflates and decodes is fine
			}
			if ops, err := seg.DecodeOps(nil); err == nil {
				_ = ops
			}
		}

		// Arm 3: structured round trip — bit-exact.
		recs := recordsFromBytes(data)
		w := disptrace.NewWriter(disptrace.Header{Workload: "fuzz", Lang: "forth", Scale: 1})
		for _, r := range recs {
			switch r.Kind {
			case disptrace.KWork:
				w.RecordWork(int(r.A))
			case disptrace.KFetch:
				w.RecordFetch(r.A, int(r.B))
			case disptrace.KDispatch:
				w.RecordDispatch(r.A, r.B, r.C)
			}
		}
		tr := w.Trace()
		if err := tr.Verify(); err != nil {
			t.Fatalf("writer produced inconsistent totals: %v", err)
		}
		back, err := disptrace.Decode(tr.Encode())
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if back.Header != tr.Header {
			t.Fatalf("header round trip: got %+v want %+v", back.Header, tr.Header)
		}
		got, err := back.Records()
		if err != nil {
			t.Fatalf("decoding records: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("got %d records, want %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
			}
		}
	})
}
