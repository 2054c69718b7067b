package disptrace_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
)

// traceParts is an encoded trace split at the boundaries a crafted
// file needs to vary: everything before the index, the index's
// dictionary size and declared raw ID-stream length, the dictionary
// bytes, and the stored ID stream.
type traceParts struct {
	head      []byte
	dictSteps uint64
	rawLen    uint64
	body      []byte
	stream    []byte
}

// splitTrace parses the layout of a valid encoding.
func splitTrace(t testing.TB, enc []byte) traceParts {
	t.Helper()
	off := 10
	next := func() uint64 {
		v, n := binary.Uvarint(enc[off:])
		if n <= 0 {
			t.Fatalf("malformed uvarint at %d", off)
		}
		off += n
		return v
	}
	hdrLen := next()
	off += int(hdrLen)
	head := off
	var p traceParts
	p.head = enc[:head]
	p.dictSteps, p.rawLen = next(), next()
	stored := int(next())
	p.body = enc[off : len(enc)-stored]
	p.stream = enc[len(enc)-stored:]
	return p
}

// join re-encodes the parts with the stored length and checksum made
// consistent, so a decoder's structural checks are what must catch
// the crafted field.
func (p traceParts) join() []byte {
	b := append([]byte(nil), p.head...)
	b = binary.AppendUvarint(b, p.dictSteps)
	b = binary.AppendUvarint(b, p.rawLen)
	b = binary.AppendUvarint(b, uint64(len(p.stream)))
	b = append(b, p.body...)
	b = append(b, p.stream...)
	fixCRC(b)
	return b
}

// deflateBytes compresses raw as the ID stream is stored.
func deflateBytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
}

// inflateIDs decompresses a stored ID stream into its step IDs.
func inflateIDs(t testing.TB, stream []byte) []uint64 {
	t.Helper()
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for len(raw) > 0 {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			t.Fatal("malformed ID stream")
		}
		ids, raw = append(ids, v), raw[n:]
	}
	return ids
}

// hardenTrace is a small trace with several distinct steps and a long
// enough ID stream for flate to matter.
func hardenTrace(t testing.TB) []byte {
	t.Helper()
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, splitSteps(stepEvents(2000, 11))...)
	enc := w.Trace().Encode()
	if _, err := disptrace.Decode(enc); err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestCorruptCompressedStream: damage inside the flate ID stream —
// garbled bytes, truncation, or a lying raw-size field — must surface
// as a decode error, never a panic, even when the container checksum
// has been fixed up to pass.
func TestCorruptCompressedStream(t *testing.T) {
	enc := hardenTrace(t)
	p := splitTrace(t, enc)
	if !bytes.Equal(p.join(), enc) {
		t.Fatal("splitTrace/join does not round-trip the encoding")
	}
	if uint64(len(p.stream)) >= p.rawLen {
		t.Fatalf("ID stream did not compress (%d stored, %d raw)", len(p.stream), p.rawLen)
	}
	garbled := append([]byte(nil), p.stream...)
	for i := range garbled {
		garbled[i] ^= 0xa5
	}
	for name, mut := range map[string]func(*traceParts){
		"garbled":   func(q *traceParts) { q.stream = garbled },
		"truncated": func(q *traceParts) { q.stream = q.stream[:len(q.stream)/2] },
		"empty":     func(q *traceParts) { q.stream = nil },
		"raw-short": func(q *traceParts) { q.rawLen-- },
		"raw-long":  func(q *traceParts) { q.rawLen++ },
		"raw-huge":  func(q *traceParts) { q.rawLen = 1 << 40 },
		// The header declares 2000 VM instructions: a raw length below
		// one byte per ID, or above five, cannot hold them.
		"raw-below-ids": func(q *traceParts) { q.rawLen = 1999 },
		"raw-above-ids": func(q *traceParts) { q.rawLen = 5*2000 + 1 },
	} {
		q := p
		mut(&q)
		if _, err := disptrace.Decode(q.join()); err == nil {
			t.Errorf("%s: Decode accepted a corrupt ID stream", name)
		}
	}
}

// TestCursorCorruptStepTable: corrupt step tables — the step
// dictionary and the step-ID stream — are rejected at Decode: a step
// ID at or beyond the dictionary size, a short or long ID stream, and
// crafted dictionary or op counts. So no cursor, replay or diff ever
// indexes out of the dictionary.
func TestCursorCorruptStepTable(t *testing.T) {
	enc := hardenTrace(t)
	p := splitTrace(t, enc)
	orig := inflateIDs(t, p.stream)
	if len(orig) != 2000 {
		t.Fatalf("hardenTrace holds %d steps, want 2000", len(orig))
	}
	// ids is the original ID stream with its first IDs replaced by vs.
	ids := func(vs ...uint64) []byte {
		var raw []byte
		for i, v := range orig {
			if i < len(vs) {
				v = vs[i]
			}
			raw = binary.AppendUvarint(raw, v)
		}
		return raw
	}
	for name, raw := range map[string][]byte{
		"id-equals-dict": ids(p.dictSteps),
		"id-huge":        ids(1 << 40),
		"too-few":        ids()[:1999],
		"too-many":       append(ids(), 0),
		"unterminated":   append(ids()[:1999], 0x80),
	} {
		q := p
		q.rawLen, q.stream = uint64(len(raw)), deflateBytes(t, raw)
		if _, err := disptrace.Decode(q.join()); err == nil {
			t.Errorf("%s: Decode accepted the ID stream", name)
		}
	}
	// The original IDs, re-compressed, decode: the rejections above are
	// the IDs', not the splice's. Swapping two IDs that name steps with
	// different events keeps every ID in range but no longer matches the
	// header's totals.
	q := p
	raw := ids()
	q.rawLen, q.stream = uint64(len(raw)), deflateBytes(t, raw)
	if _, err := disptrace.Decode(q.join()); err != nil {
		t.Fatalf("a valid spliced ID stream was rejected: %v", err)
	}
	swapped := false
	for i := 1; i < len(orig) && !swapped; i++ {
		if orig[i] != orig[0] {
			raw = ids(orig[i])
			q.rawLen, q.stream = uint64(len(raw)), deflateBytes(t, raw)
			_, err := disptrace.Decode(q.join())
			swapped = err != nil
		}
	}
	if !swapped {
		t.Error("no in-range ID substitution was caught by the header totals")
	}

	for name, mut := range map[string]func(*traceParts){
		"dict-huge":    func(q *traceParts) { q.dictSteps = 1 << 40 },
		"dict-beyond":  func(q *traceParts) { q.dictSteps = uint64(len(q.body)) + 1 },
		"dict-short":   func(q *traceParts) { q.dictSteps-- },
		"dict-long":    func(q *traceParts) { q.dictSteps++ },
		"op-count":     func(q *traceParts) { q.body = binary.AppendUvarint(nil, 1<<40) },
		"body-chopped": func(q *traceParts) { q.body = q.body[:len(q.body)-1] },
		"body-extra":   func(q *traceParts) { q.body = append(append([]byte(nil), q.body...), 3) },
	} {
		q := p
		mut(&q)
		if _, err := disptrace.Decode(q.join()); err == nil {
			t.Errorf("%s: Decode accepted a crafted dictionary", name)
		}
	}
}

// TestDecodeBoundsReplayWork: one long dictionary entry named by many
// IDs would make replay cost quadratic in the file size, although the
// file itself stays small and its totals agree with its header. Decode
// and Verify refuse it; the same entry used a few times is accepted.
func TestDecodeBoundsReplayWork(t *testing.T) {
	build := func(entryOps, uses int) *disptrace.Trace {
		w := disptrace.NewWriter(testHeader())
		var ops []cpu.Op
		for i := range entryOps {
			ops = append(ops, cpu.Op{Kind: cpu.OpFetch, A: uint64(0x1000 + 8*i), B: 8})
		}
		ops = append(ops, cpu.Op{Kind: cpu.OpWork})
		for range uses {
			w.RecordStep(ops)
		}
		return w.Trace()
	}
	for _, c := range []struct {
		entryOps, uses int
		ok             bool
	}{
		{2000, 1, true},     // a long step used once
		{2000, 500, true},   // 1 000 500 ops: within the free allowance
		{2000, 1000, false}, // 2 001 000 ops from a ~6 KB file
		{1, 100000, true},   // short steps: linear however long the stream
	} {
		tr := build(c.entryOps, c.uses)
		enc := tr.Encode()
		_, err := disptrace.Decode(enc)
		verr := tr.Verify()
		if (err == nil) != c.ok || (verr == nil) != c.ok {
			t.Errorf("%d-op entry used %d times (%d bytes): Decode err %v, Verify err %v, want ok=%v",
				c.entryOps+1, c.uses, len(enc), err, verr, c.ok)
		}
	}
}

// TestDecodeRejectsHugeFetch: a fetch's size costs one uvarint on
// disk but one I-cache touch per line on replay, so a few crafted
// bytes naming 16 GiB fetches would make one replay take seconds and
// billions of touches. Decode refuses any fetch above MaxFetchBytes
// with ErrFetchTooLarge, and so does a peer fill, which decodes the
// same way; a fetch of exactly MaxFetchBytes decodes.
func TestDecodeRejectsHugeFetch(t *testing.T) {
	k := healKey()
	craft := func(size int) []byte {
		w := disptrace.NewWriter(k.Header())
		fetch := cpu.Op{Kind: cpu.OpFetch, A: 0x1000, B: uint64(size)}
		recordSteps(w, []cpu.Op{fetch, fetch, fetch})
		return w.Trace().Encode()
	}
	huge := craft(1 << 34)
	if _, err := disptrace.Decode(huge); !errors.Is(err, disptrace.ErrFetchTooLarge) {
		t.Fatalf("Decode of a %d-byte trace with 16 GiB fetches: err %v, want ErrFetchTooLarge", len(huge), err)
	}
	if _, err := disptrace.Decode(craft(disptrace.MaxFetchBytes + 1)); !errors.Is(err, disptrace.ErrFetchTooLarge) {
		t.Errorf("a fetch one byte over the cap: err %v, want ErrFetchTooLarge", err)
	}
	if _, err := disptrace.Decode(craft(disptrace.MaxFetchBytes)); err != nil {
		t.Errorf("a fetch of exactly MaxFetchBytes: %v", err)
	}

	c := disptrace.NewCache(t.TempDir())
	c.FillID = func(string) ([]byte, error) { return huge, nil }
	if _, _, err := c.LoadID(k.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Fatalf("a peer fill with 16 GiB fetches was served: err %v", err)
	}
	if st := c.Stats(); st.PeerFillErrors != 1 || st.PeerFills != 0 {
		t.Errorf("peer fill stats %+v, want one error and no fill", st)
	}
}

// TestParseIDsMatchesUvarint: parseIDs, which decodes one- and
// two-byte IDs inline, reads every raw stream as a plain
// binary.Uvarint loop does. Streams mix IDs of one to three bytes,
// non-minimal encodings, truncations and IDs past the dictionary, and
// both decoders must agree on the IDs, the use counts and whether the
// stream is rejected.
func TestParseIDsMatchesUvarint(t *testing.T) {
	ref := func(raw []byte, n uint64, dict int) ([]uint32, []uint64, bool) {
		ids, uses := make([]uint32, 0, n), make([]uint64, dict)
		off := 0
		for range n {
			v, k := binary.Uvarint(raw[off:])
			if k <= 0 || v >= uint64(dict) {
				return nil, nil, false
			}
			off += k
			ids = append(ids, uint32(v))
			uses[v]++
		}
		return ids, uses, off == len(raw)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	dicts := []int{1, 100, 128, 129, 351, 16384, 16385, 70000}
	for iter := range 3000 {
		dict := dicts[iter%len(dicts)]
		var raw []byte
		n := uint64(rng.IntN(12))
		for range n {
			switch rng.IntN(8) {
			case 0:
				raw = append(raw, 0x80, 0x00) // non-minimal 0
			case 1:
				raw = append(raw, byte(0x80|rng.IntN(0x80))) // truncated
			default:
				raw = binary.AppendUvarint(raw, uint64(rng.IntN(dict+dict/8+1)))
			}
		}
		if rng.IntN(4) == 0 && len(raw) > 0 {
			raw = raw[:rng.IntN(len(raw))]
		}
		if rng.IntN(8) == 0 {
			n++
		}
		if n == 0 {
			continue
		}
		wantIDs, wantUses, ok := ref(raw, n, dict)
		uses := make([]uint64, dict)
		ids, err := disptrace.ParseIDs(raw, n, uses)
		if (err == nil) != ok {
			t.Fatalf("stream % x, n %d, dict %d: error %v, Uvarint loop accepts: %v", raw, n, dict, err, ok)
		}
		if ok && (!slices.Equal(ids, wantIDs) || !slices.Equal(uses, wantUses)) {
			t.Fatalf("stream % x, dict %d: ids %v uses %v, want %v %v", raw, dict, ids, uses, wantIDs, wantUses)
		}
	}
}
