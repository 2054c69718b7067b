package disptrace_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/steptok"
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

// inflateTokens decompresses a stored token stream.
func inflateTokens(t testing.TB, stream []byte) []uint16 {
	t.Helper()
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw)%2 != 0 {
		t.Fatal("odd token stream")
	}
	toks := make([]uint16, len(raw)/2)
	for i := range toks {
		toks[i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	return toks
}

// tokenBytes is the raw (uncompressed) form of a token stream.
func tokenBytes(toks []uint16) []byte {
	var raw []byte
	for _, tok := range toks {
		raw = binary.LittleEndian.AppendUint16(raw, tok)
	}
	return raw
}

// stepIDs walks a valid token stream into its step IDs.
func stepIDs(toks []uint16, dict int) []uint32 {
	var ids []uint32
	r := steptok.NewReader(toks, dict)
	for {
		id, ok := r.Step()
		if !ok {
			return ids
		}
		ids = append(ids, id)
	}
}

// withTokens is p with its stream replaced by toks.
func (p traceParts) withTokens(t testing.TB, toks []uint16) traceParts {
	raw := tokenBytes(toks)
	p.rawLen, p.stream = uint64(len(raw)), deflateBytes(t, raw)
	return p
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
		// Tokens are two bytes each, and the header declares 2000 VM
		// instructions: no token stream holds them in zero tokens or
		// needs more than three tokens each.
		"raw-odd":         func(q *traceParts) { q.rawLen |= 1 },
		"raw-zero":        func(q *traceParts) { q.rawLen = 0 },
		"raw-above-steps": func(q *traceParts) { q.rawLen = 2*3*2000 + 2 },
	} {
		q := p
		mut(&q)
		if _, err := disptrace.Decode(q.join()); err == nil {
			t.Errorf("%s: Decode accepted a corrupt ID stream", name)
		}
	}
}

// TestCursorCorruptStepTable: corrupt step tables — the step
// dictionary and the token stream — are rejected at Decode: an ID at
// or beyond the dictionary size, a truncated escape, a stream of too
// few or too many steps, and crafted dictionary or op counts. So no
// cursor, replay or diff ever indexes out of the dictionary.
func TestCursorCorruptStepTable(t *testing.T) {
	enc := hardenTrace(t)
	p := splitTrace(t, enc)
	toks := inflateTokens(t, p.stream)
	orig := stepIDs(toks, int(p.dictSteps))
	if len(orig) != 2000 {
		t.Fatalf("hardenTrace holds %d steps, want 2000", len(orig))
	}
	// ids is the original ID stream with its first IDs replaced by vs.
	ids := func(vs ...uint32) []uint32 {
		out := slices.Clone(orig)
		copy(out, vs)
		return out
	}
	for name, c := range map[string]struct {
		toks []uint16
		want error
	}{
		"id-equals-dict": {steptok.Encode(ids(uint32(p.dictSteps))), disptrace.ErrTokens},
		"id-huge":        {slices.Concat([]uint16{steptok.Escape, 0x8000, 0}, toks[1:]), disptrace.ErrTokens},
		"too-few":        {steptok.Encode(orig[:1999]), disptrace.ErrStepCount},
		"too-many":       {steptok.Encode(append(ids(), 0)), disptrace.ErrStepCount},
		"unterminated":   {append(slices.Clone(toks), steptok.Escape, 0), disptrace.ErrTokens},
	} {
		if _, err := disptrace.Decode(p.withTokens(t, c.toks).join()); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode err %v, want %v", name, err, c.want)
		}
	}
	// The original tokens, re-compressed, decode: the rejections above
	// are the tokens', not the splice's. Swapping two IDs that name
	// steps with different events keeps every ID in range but no longer
	// matches the header's totals.
	if _, err := disptrace.Decode(p.withTokens(t, steptok.Encode(orig)).join()); err != nil {
		t.Fatalf("a valid spliced token stream was rejected: %v", err)
	}
	swapped := false
	for i := 1; i < len(orig) && !swapped; i++ {
		if orig[i] != orig[0] {
			_, err := disptrace.Decode(p.withTokens(t, steptok.Encode(ids(orig[i]))).join())
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

// TestDecodeRejectsBadTokens: each way a token stream can break the
// format v6 grammar or disagree with its header is refused with a
// typed error, by Decode and, where the index already shows it, by
// DecodeMeta: a v5 file, a run token first, a follow of a step that
// has had no successor yet, runs that do not sum to the header's step
// count, and a file of a few bytes that claims 2^40 steps, which is
// refused before anything is reserved for them.
func TestDecodeRejectsBadTokens(t *testing.T) {
	// A loop of 50 steps run 40 times, so most steps are follows.
	w := disptrace.NewWriter(testHeader())
	loop := splitSteps(stepEvents(50, 3))
	for range 40 {
		recordSteps(w, loop...)
	}
	enc := w.Trace().Encode()
	p := splitTrace(t, enc)
	toks := inflateTokens(t, p.stream)
	if n := steptok.Explicit(toks); n*2 > len(stepIDs(toks, int(p.dictSteps))) {
		t.Fatalf("%d of 2000 steps are explicit", n)
	}

	v5 := slices.Clone(enc)
	binary.LittleEndian.PutUint16(v5[4:6], 5)
	if _, err := disptrace.Decode(v5); !errors.Is(err, disptrace.ErrVersion) {
		t.Errorf("a v5 file: Decode err %v, want ErrVersion", err)
	}
	if _, err := disptrace.DecodeMeta(v5); !errors.Is(err, disptrace.ErrVersion) {
		t.Errorf("a v5 file: DecodeMeta err %v, want ErrVersion", err)
	}

	// lastRun is the index of the stream's last run token.
	lastRun := -1
	for i, tok := range toks {
		if tok >= steptok.Run {
			lastRun = i
		}
	}
	for name, c := range map[string]struct {
		toks []uint16
		want error
	}{
		// One follow in place of the first explicit ID.
		"run-first": {append([]uint16{steptok.Run}, toks[1:]...), disptrace.ErrTokens},
		// Step 0 has had no successor when the stream has only begun.
		"follow-undefined": {append([]uint16{0, steptok.Run}, toks[1:]...), disptrace.ErrTokens},
		// The last run one follow short, or one follow long.
		"runs-short": {slices.Concat(toks[:lastRun], []uint16{toks[lastRun] - 1}, toks[lastRun+1:]), disptrace.ErrStepCount},
		"runs-long":  {slices.Concat(toks[:lastRun], []uint16{toks[lastRun] + 1}, toks[lastRun+1:]), disptrace.ErrStepCount},
	} {
		if _, err := disptrace.Decode(p.withTokens(t, c.toks).join()); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode err %v, want %v", name, err, c.want)
		}
	}

	// A header that claims 2^40 steps — within its own step bound, so
	// only the tokens' capacity gives it away — over one run token.
	huge := disptrace.NewWriter(testHeader()).Trace()
	huge.Header.VMInstructions, huge.Header.MaxSteps = 1<<40, 1<<41
	q := splitTrace(t, huge.Encode()).withTokens(t, []uint16{0xffff})
	q.dictSteps = 0
	b := q.join()
	if len(b) > 200 {
		t.Fatalf("crafted file is %d bytes", len(b))
	}
	for name, decode := range map[string]func() error{
		"Decode":     func() error { _, err := disptrace.Decode(b); return err },
		"DecodeMeta": func() error { _, err := disptrace.DecodeMeta(b); return err },
	} {
		if err := decode(); !errors.Is(err, disptrace.ErrStepCount) {
			t.Errorf("%s of a %d-byte file claiming 2^40 steps: err %v, want ErrStepCount", name, len(b), err)
		}
		// Only the header's strings and the error are allocated.
		if n := testing.AllocsPerRun(10, func() { decode() }); n > 12 {
			t.Errorf("%s allocates %v times before refusing the file", name, n)
		}
	}
	// Within the tokens' capacity but beyond its own step bound.
	huge.Header.VMInstructions, huge.Header.MaxSteps = steptok.MaxRun, steptok.MaxRun-1
	q = splitTrace(t, huge.Encode()).withTokens(t, []uint16{0xffff})
	if _, err := disptrace.Decode(q.join()); !errors.Is(err, disptrace.ErrStepCount) {
		t.Errorf("a step count over MaxSteps: err %v, want ErrStepCount", err)
	}
}

// TestTokenRoundTrips: the tokens' two rare forms survive the writer,
// Encode, Decode, a cursor and replay — escaped IDs of 0x7fff and
// above (a 40,000-entry dictionary) and a run of 0x8000+1 follows,
// which takes two run tokens.
func TestTokenRoundTrips(t *testing.T) {
	step := func(k int) []cpu.Op {
		return []cpu.Op{{Kind: cpu.OpWork, A: uint64(k % 7)}, {Kind: cpu.OpFetch, A: 0x1000 + 64*uint64(k), B: 16},
			{Kind: cpu.OpWork, A: 1}, {Kind: cpu.OpFetch, A: 0x1030 + 64*uint64(k), B: 8},
			{Kind: cpu.OpDispatch, A: 0x1030 + 64*uint64(k), B: 1, C: 0x1000 + 64*uint64((k*7919)%40000)}}
	}
	var wide, long [][]cpu.Op
	for k := range 40000 {
		wide = append(wide, step(k))
	}
	// The wide stream walks the dictionary twice, so its second pass
	// is one long run; a few explicit IDs past 0x7fff come in between.
	wide = append(wide, wide...)
	wide = append(wide, step(39999), step(32767), step(32768), step(0x7ffe))
	// The first two steps are explicit: the second gives step 1 its
	// successor.
	for range steptok.MaxRun + 3 {
		long = append(long, step(1))
	}
	for name, steps := range map[string][][]cpu.Op{"escaped IDs": wide, "long run": long} {
		w := disptrace.NewWriter(testHeader())
		recordSteps(w, steps...)
		tr := w.Trace()
		back, err := disptrace.Decode(tr.Encode())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("%s: decoded trace differs from the writer's", name)
		}
		got := drainSteps(t, disptrace.NewCursor(back))
		if len(got) != len(steps) {
			t.Fatalf("%s: %d steps, want %d", name, len(got), len(steps))
		}
		for i := range steps {
			if !opsEqual(got[i].Ops, steps[i]) {
				t.Fatalf("%s: step %d diverged", name, i)
			}
		}
		ref := cpu.NewSim(cpu.Celeron800)
		for _, ops := range steps {
			ref.Apply(ops)
		}
		sim := cpu.NewSim(cpu.Celeron800)
		if err := disptrace.Replay(back, sim, 1); err != nil {
			t.Fatal(err)
		}
		sim.C.VMInstructions -= back.Header.VMInstructions
		if !sim.SameState(ref) {
			t.Errorf("%s: replay diverged from Apply:\n  got  %+v\n  want %+v", name, sim.C, ref.C)
		}
		if a := back.Arena(); name == "long run" && (a.Tokens() != 4 || a.RunSteps() != steptok.MaxRun+1) {
			t.Errorf("long run: %d tokens with %d steps in runs, want 4 with %d", a.Tokens(), a.RunSteps(), steptok.MaxRun+1)
		}
		t.Logf("%s: %d steps in %d tokens, %d in runs", name, len(steps), back.Arena().Tokens(), back.Arena().RunSteps())
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
	c.Fill = func(string, *disptrace.Key) ([]byte, error) { return huge, nil }
	if _, err := c.LoadID(k.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Fatalf("a peer fill with 16 GiB fetches was served: err %v", err)
	}
	if st := c.Stats(); st.PeerFillErrors != 1 || st.PeerFills != 0 {
		t.Errorf("peer fill stats %+v, want one error and no fill", st)
	}
}
