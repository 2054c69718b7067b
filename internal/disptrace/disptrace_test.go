package disptrace_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
	"vmopt/internal/workload"
)

// testHeader returns a minimal header for codec tests.
func testHeader() disptrace.Header {
	return disptrace.Header{
		Workload: "gray", Lang: "forth", Variant: "plain", Technique: "plain",
		Scale: 7, ScaleDiv: 40, MaxSteps: 1000, ISAHash: 0xdeadbeef,
	}
}

// feed drives records into a writer.
func feed(w *disptrace.Writer, recs []disptrace.Record) {
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
}

func TestRoundTrip(t *testing.T) {
	recs := []disptrace.Record{
		{Kind: disptrace.KWork, A: 0},
		{Kind: disptrace.KWork, A: 3},
		{Kind: disptrace.KWork, A: 300}, // beyond the inline-tag range
		{Kind: disptrace.KFetch, A: 0x2000, B: 24},
		{Kind: disptrace.KFetch, A: 0x1fc0, B: 8}, // negative delta
		{Kind: disptrace.KDispatch, A: 0x2040, B: 7, C: 0x2100},
		{Kind: disptrace.KDispatch, A: 0x2140, B: 2, C: 0x2000},
		{Kind: disptrace.KWork, A: 1 << 40}, // huge work burst
		{Kind: disptrace.KFetch, A: 1<<63 + 5, B: 64},
		{Kind: disptrace.KDispatch, A: 1 << 62, B: 1 << 30, C: 3},
	}
	w := disptrace.NewWriter(testHeader())
	w.RecordCodeBytes(4096)
	w.RecordVMInst()
	w.RecordVMInst()
	feed(w, recs)
	tr := w.Trace()

	if tr.Header.Records != uint64(len(recs)) || tr.Header.Dispatches != 3 ||
		tr.Header.Fetches != 3 || tr.Header.VMInstructions != 2 || tr.Header.CodeBytes != 4096 {
		t.Fatalf("writer totals wrong: %+v", tr.Header)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}

	got, err := disptrace.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != tr.Header {
		t.Fatalf("header round trip: got %+v want %+v", got.Header, tr.Header)
	}
	back, err := got.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, back[i], recs[i])
		}
	}
}

// TestSegmentation: a stream longer than one segment round-trips and
// the per-segment delta reset keeps every segment independently
// decodable.
func TestSegmentation(t *testing.T) {
	var recs []disptrace.Record
	addr := uint64(0x4000)
	for i := range 3*disptrace.DefaultSegmentRecords + 17 {
		switch i % 3 {
		case 0:
			recs = append(recs, disptrace.Record{Kind: disptrace.KWork, A: uint64(i % 97)})
		case 1:
			addr += uint64(i%53) * 8
			recs = append(recs, disptrace.Record{Kind: disptrace.KFetch, A: addr, B: uint64(4 + i%60)})
		default:
			recs = append(recs, disptrace.Record{Kind: disptrace.KDispatch, A: addr + 16, B: uint64(i % 255), C: addr ^ 0x80})
		}
	}
	w := disptrace.NewWriter(testHeader())
	feed(w, recs)
	tr := w.Trace()
	if len(tr.Segs) != 4 {
		t.Fatalf("expected 4 segments, got %d", len(tr.Segs))
	}
	// Middle segments decode standalone (delta bases reset).
	if _, err := tr.Segs[2].Decode(nil); err != nil {
		t.Fatalf("standalone segment decode: %v", err)
	}
	back, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d diverged after segmentation: got %+v want %+v", i, back[i], recs[i])
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	w := disptrace.NewWriter(testHeader())
	feed(w, []disptrace.Record{
		{Kind: disptrace.KDispatch, A: 0x40, B: 1, C: 0x80},
		{Kind: disptrace.KWork, A: 12},
	})
	enc := w.Trace().Encode()

	if _, err := disptrace.Decode(nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := disptrace.Decode([]byte("VMXT????????????")); err == nil {
		t.Error("bad magic must error")
	}
	short := enc[:len(enc)-1]
	if _, err := disptrace.Decode(short); err == nil {
		t.Error("truncated trace must error")
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		if tr, err := disptrace.Decode(mut); err == nil {
			// A flip that lands in the checksum's own bytes can only
			// produce a mismatch; anywhere else it must be caught by
			// magic/version/crc checks. Surviving decode untouched
			// means corruption went unnoticed.
			if tr.Header == w.Trace().Header {
				t.Errorf("flip at byte %d decoded to the original", i)
			}
			t.Errorf("flip at byte %d not detected", i)
		}
	}
}

// TestDecodeRejectsOldVersions: a file whose version bytes name any
// format but the current one is refused by both readers with an error
// that names the version and asks to re-record — before the checksum
// (which still matches) is even read.
func TestDecodeRejectsOldVersions(t *testing.T) {
	w := disptrace.NewWriter(testHeader())
	feed(w, []disptrace.Record{
		{Kind: disptrace.KWork, A: 7},
		{Kind: disptrace.KFetch, A: 0x2000, B: 24},
		{Kind: disptrace.KDispatch, A: 0x2040, B: 3, C: 0x2100},
	})
	enc := w.Trace().Encode()
	for _, v := range []uint16{0, 1, 2, 4} {
		old := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint16(old[4:6], v)
		want := fmt.Sprintf("v%d", v)
		if _, err := disptrace.Decode(old); err == nil ||
			!strings.Contains(err.Error(), "re-record") || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode of a v%d file: err = %v; want a %q error naming %s", v, err, "re-record", want)
		}
		if _, err := disptrace.DecodeMeta(old); err == nil ||
			!strings.Contains(err.Error(), "re-record") || !strings.Contains(err.Error(), want) {
			t.Errorf("DecodeMeta of a v%d file: err = %v; want a %q error naming %s", v, err, "re-record", want)
		}
	}
	if _, err := disptrace.Decode(enc); err != nil {
		t.Fatalf("the unpatched encoding must decode: %v", err)
	}
}

// TestCompressionRatio: a real dispatch stream must shrink at least
// 3x on disk under the flate codec against the raw codec (the
// measured ratio is 60x+; the assertion leaves headroom for
// codec-irrelevant stream changes).
func TestCompressionRatio(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	flate := tr.Encode()
	raw := tr.EncodeCodec(disptrace.CodecRaw)
	if len(flate)*3 > len(raw) {
		t.Errorf("flate trace is %d bytes, raw %d: compression under 3x", len(flate), len(raw))
	}
	// And the compressed form still decodes to the same stream.
	got, err := disptrace.Decode(flate)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	back, err := got.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("record %d diverged through compression: got %+v want %+v", i, back[i], want[i])
		}
	}
}

// fixCRC recomputes the container checksum after a test mutates the
// body, so corruption below the crc layer reaches the segment
// decoders.
func fixCRC(enc []byte) {
	binary.LittleEndian.PutUint32(enc[6:10], crc32.ChecksumIEEE(enc[10:]))
}

// TestCorruptCompressedSegments: damage inside a flate payload —
// garbled bytes, truncation, or a lying raw-size field — must surface
// as a decode error from every decode entry point, never a panic, even
// when the container checksum has been fixed up to pass.
func TestCorruptCompressedSegments(t *testing.T) {
	// A payload long and varied enough that flate actually compresses
	// it (forcing the CodecFlate path).
	var recs []disptrace.Record
	addr := uint64(0x4000)
	for i := range 4096 {
		addr += uint64(i%13) * 8
		recs = append(recs,
			disptrace.Record{Kind: disptrace.KWork, A: uint64(i % 7)},
			disptrace.Record{Kind: disptrace.KFetch, A: addr, B: 16},
			disptrace.Record{Kind: disptrace.KDispatch, A: addr + 8, B: uint64(i % 97), C: addr ^ 0x40})
	}
	w := disptrace.NewWriter(testHeader())
	feed(w, recs)
	tr := w.Trace()
	enc := tr.Encode()
	probe, err := disptrace.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Segs) == 0 || probe.Segs[0].Codec != disptrace.CodecFlate {
		t.Fatalf("test stream did not compress (codec %v); cannot exercise the flate path", probe.Segs[0].Codec)
	}

	decodeAll := func(tr *disptrace.Trace) error {
		if _, err := tr.Records(); err != nil {
			return err
		}
		for _, s := range tr.Segs {
			if _, err := s.DecodeOps(nil); err != nil {
				return err
			}
		}
		return nil
	}

	// Garble bytes inside the first segment payload (the payload area
	// starts after header block and index; flipping tail bytes of the
	// file lands in segment data) and fix the crc so the container
	// decodes.
	garbled := append([]byte(nil), enc...)
	for i := len(garbled) - 64; i < len(garbled); i++ {
		garbled[i] ^= 0xa5
	}
	fixCRC(garbled)
	if dec, err := disptrace.Decode(garbled); err == nil {
		if decodeAll(dec) == nil {
			t.Error("garbled flate payload decoded cleanly")
		}
	}

	// Truncated and garbled payloads, and a lying RawBytes, fed
	// straight to the segment decoders.
	seg := probe.Segs[0]
	for name, bad := range map[string]disptrace.Segment{
		"truncated": {Data: seg.Data[:len(seg.Data)/2], Records: seg.Records, Codec: disptrace.CodecFlate, RawBytes: seg.RawBytes},
		"empty":     {Data: nil, Records: seg.Records, Codec: disptrace.CodecFlate, RawBytes: seg.RawBytes},
		"raw-short": {Data: seg.Data, Records: seg.Records, Codec: disptrace.CodecFlate, RawBytes: seg.RawBytes / 2},
		"raw-long":  {Data: seg.Data, Records: seg.Records, Codec: disptrace.CodecFlate, RawBytes: seg.RawBytes * 2},
		"raw-huge":  {Data: seg.Data, Records: seg.Records, Codec: disptrace.CodecFlate, RawBytes: 1 << 30},
		"codec-99":  {Data: seg.Data, Records: seg.Records, Codec: disptrace.Codec(99), RawBytes: seg.RawBytes},
		// A huge-but-raw-consistent record count must be rejected
		// before any allocation keyed on it (a max-ratio DEFLATE
		// stream can declare ~1000x its stored size, so the count is
		// no longer bounded by the input bytes).
		"records-huge": {Data: seg.Data, Records: 1 << 29, Codec: disptrace.CodecFlate, RawBytes: 1 << 30},
	} {
		if _, err := bad.Decode(nil); err == nil {
			t.Errorf("%s: Decode accepted a corrupt flate segment", name)
		}
		if _, err := bad.DecodeOps(nil); err == nil {
			t.Errorf("%s: DecodeOps accepted a corrupt flate segment", name)
		}
	}

	// An unknown codec byte in the wire index must be rejected by the
	// container decoder. The index begins right after the
	// length-prefixed header block; its first byte is segment 0's
	// codec.
	mut := append([]byte(nil), enc...)
	hdrLen, n := binary.Uvarint(mut[10:])
	codecOff := 10 + n + int(hdrLen)
	segCount, n2 := binary.Uvarint(mut[codecOff:])
	if segCount != uint64(len(probe.Segs)) {
		t.Fatalf("index offset wrong: read %d segments, want %d", segCount, len(probe.Segs))
	}
	mut[codecOff+n2] = 99
	fixCRC(mut)
	if _, err := disptrace.Decode(mut); err == nil {
		t.Error("unknown codec byte in index not rejected")
	}
}

// tracePairs are the (workload, variant) pairs of the equivalence
// tests: three pairs spanning both VMs and static, dynamic and plain
// techniques (quickening included via the JVM workload).
func tracePairs(t *testing.T) []struct {
	w *workload.Workload
	v harness.Variant
} {
	t.Helper()
	gray, err := workload.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	brainless, err := workload.ByName("brainless")
	if err != nil {
		t.Fatal(err)
	}
	compress, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		w *workload.Workload
		v harness.Variant
	}{
		{gray, harness.Variant{Name: "plain", Technique: core.TPlain}},
		{brainless, harness.Variant{Name: "dynamic super", Technique: core.TDynamicSuper}},
		{compress, harness.Variant{Name: "across bb", Technique: core.TAcrossBB}},
	}
}

// TestReplayEquivalence is the tentpole guarantee: for three
// (workload, technique) pairs and every predictor kind, a recorded
// trace replayed on machine M yields counters byte-identical to
// directly simulating on M — including the float cycle counters and
// on machines other than the one that recorded.
func TestReplayEquivalence(t *testing.T) {
	machines := []cpu.Machine{
		cpu.Celeron800, // plain BTB
		cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc), // BTB + 2-bit counters
		cpu.PentiumM, // two-level
		cpu.Celeron800.WithPredictor(cpu.PredictCaseBlock), // operand-keyed
		cpu.Pentium4Northwood,                              // CPI 0.7: float cycle paths
		cpu.Celeron800.WithBTBEntries(64),                  // capacity-miss regime
	}
	for _, pair := range tracePairs(t) {
		s := harness.NewTestSuite()
		s.ScaleDiv = 40
		// Record on the first machine only.
		tr, recCounters, err := s.RecordTrace(pair.w, pair.v, machines[0])
		if err != nil {
			t.Fatalf("%s/%s: record: %v", pair.w.Name, pair.v.Name, err)
		}
		if tr.Header.Dispatches == 0 {
			t.Fatalf("%s/%s: empty dispatch stream", pair.w.Name, pair.v.Name)
		}
		for i, m := range machines {
			direct, err := s.Run(pair.w, pair.v, m)
			if err != nil {
				t.Fatalf("%s/%s on %s: direct: %v", pair.w.Name, pair.v.Name, m.Name, err)
			}
			if i == 0 && direct != recCounters {
				t.Errorf("%s/%s: recording run disagrees with plain run: %v vs %v",
					pair.w.Name, pair.v.Name, recCounters, direct)
			}
			replayed, err := disptrace.ReplayMachine(tr, m, 1)
			if err != nil {
				t.Fatalf("%s/%s on %s: replay: %v", pair.w.Name, pair.v.Name, m.Name, err)
			}
			if replayed != direct {
				t.Errorf("%s/%s on %s: replay diverged:\n  direct   %+v\n  replayed %+v",
					pair.w.Name, pair.v.Name, m.Name, direct, replayed)
			}
			// And through the serialized forms: compressed and raw.
			for enc, bytes := range map[string][]byte{
				"flate": tr.Encode(),
				"raw":   tr.EncodeCodec(disptrace.CodecRaw),
			} {
				decoded, err := disptrace.Decode(bytes)
				if err != nil {
					t.Fatal(err)
				}
				reloaded, err := disptrace.ReplayMachine(decoded, m, 1)
				if err != nil {
					t.Fatal(err)
				}
				if reloaded != direct {
					t.Errorf("%s/%s on %s: replay after %s encode/decode diverged", pair.w.Name, pair.v.Name, m.Name, enc)
				}
			}
		}
	}
}

// TestReplayEachMatchesSolo: the parallel-apply broadcast (one decode
// pass, one applier goroutine per sim) must deliver every machine the
// counters a solo sequential replay produces, from both raw and
// compressed segments.
func TestReplayEachMatchesSolo(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := disptrace.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	machines := []cpu.Machine{
		cpu.Celeron800, cpu.PentiumM, cpu.Pentium4Northwood,
		cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc),
		cpu.Celeron800.WithBTBEntries(64),
	}
	for name, src := range map[string]*disptrace.Trace{"raw": tr, "flate": wire} {
		sims := make([]*cpu.Sim, len(machines))
		for i, m := range machines {
			sims[i] = cpu.NewSim(m)
		}
		if err := disptrace.ReplayEach(src, sims); err != nil {
			t.Fatalf("%s: ReplayEach: %v", name, err)
		}
		for i, m := range machines {
			solo, err := disptrace.ReplayMachine(tr, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sims[i].C != solo {
				t.Errorf("%s: machine %s diverged under parallel apply:\n  solo %+v\n  each %+v",
					name, m.Name, solo, sims[i].C)
			}
		}
	}
}

// TestReplayParallelMatchesSequential: parallel segment decode must
// not change results or ordering.
func TestReplayParallelMatchesSequential(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := disptrace.ReplayMachine(tr, cpu.Pentium4Northwood, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 4, 8} {
		par, err := disptrace.ReplayMachine(tr, cpu.Pentium4Northwood, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if par != seq {
			t.Errorf("jobs=%d: parallel replay diverged:\n  seq %+v\n  par %+v", jobs, seq, par)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	w := disptrace.NewWriter(testHeader())
	feed(w, []disptrace.Record{
		{Kind: disptrace.KDispatch, A: 0x40, B: 1, C: 0x80},
		{Kind: disptrace.KWork, A: 9},
		{Kind: disptrace.KFetch, A: 0x100, B: 16},
	})
	tr := w.Trace()
	path := filepath.Join(t.TempDir(), "sub", "t.vmdt")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := disptrace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != tr.Header {
		t.Fatalf("header changed across save/load: %+v vs %+v", got.Header, tr.Header)
	}
}

func TestCacheGetOrRecord(t *testing.T) {
	c := disptrace.NewCache(t.TempDir())
	k := disptrace.Key{Workload: "gray", Lang: "forth", Variant: "plain",
		Technique: "plain", Scale: 5, ScaleDiv: 40, MaxSteps: 100, ISAHash: 42}
	calls := 0
	record := func() (*disptrace.Trace, error) {
		calls++
		w := disptrace.NewWriter(k.Header())
		w.RecordDispatch(0x40, 1, 0x80)
		return w.Trace(), nil
	}

	tr1, recorded, err := c.GetOrRecord(k, record)
	if err != nil || !recorded || calls != 1 {
		t.Fatalf("first call: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	tr2, recorded, err := c.GetOrRecord(k, record)
	if err != nil || recorded || calls != 1 {
		t.Fatalf("second call should load from disk: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	if tr2.Header != tr1.Header {
		t.Fatal("loaded trace header differs from recorded")
	}

	// A different key records separately.
	k2 := k
	k2.Variant = "across bb"
	if _, recorded, err = c.GetOrRecord(k2, record); err != nil || !recorded || calls != 2 {
		t.Fatalf("distinct key: err=%v recorded=%v calls=%d", err, recorded, calls)
	}

	// Corrupt the file on disk: the cache must heal by re-recording.
	if err := os.WriteFile(c.Path(k), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recorded, err = c.GetOrRecord(k, record); err != nil || !recorded || calls != 3 {
		t.Fatalf("corrupt file should re-record: err=%v recorded=%v calls=%d", err, recorded, calls)
	}

	// A file whose header doesn't match its key is rejected too
	// (simulates a renamed/stale cache entry).
	other := disptrace.NewWriter(disptrace.Header{Workload: "tscp"})
	if err := other.Trace().Save(c.Path(k)); err != nil {
		t.Fatal(err)
	}
	if _, recorded, err = c.GetOrRecord(k, record); err != nil || !recorded || calls != 4 {
		t.Fatalf("mismatched header should re-record: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
}

// TestCacheConcurrent: concurrent callers for one key share a single
// recording (the runner.Flight dedup).
func TestCacheConcurrent(t *testing.T) {
	c := disptrace.NewCache(t.TempDir())
	k := disptrace.Key{Workload: "w", Variant: "v", Scale: 1, ScaleDiv: 1}
	var mu sync.Mutex
	calls := 0
	gate := make(chan struct{})
	record := func() (*disptrace.Trace, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-gate // hold every concurrent caller in the same flight
		w := disptrace.NewWriter(k.Header())
		w.RecordWork(1)
		return w.Trace(), nil
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			_, _, errs[i] = c.GetOrRecord(k, record)
		}(i)
	}
	for range n {
		<-started
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("want exactly 1 recording across %d concurrent callers, got %d", n, calls)
	}
}

// TestRunSpecsGroupedReplay: the traced RunSpecs path (grouped
// record-once-replay-many on a parallel pool) returns the same
// counters in the same order as the per-cell direct path.
func TestRunSpecsGroupedReplay(t *testing.T) {
	pairs := tracePairs(t)
	machines := []cpu.Machine{
		cpu.Celeron800, cpu.PentiumM, cpu.Pentium4Northwood,
		cpu.Celeron800.WithBTBEntries(128),
	}
	var specs []harness.RunSpec
	for _, p := range pairs {
		for _, m := range machines {
			specs = append(specs, harness.RunSpec{W: p.w, V: p.v, M: m})
		}
	}
	// Duplicate a few cells: grouping must dedup machines, not drop
	// or reorder results.
	specs = append(specs, specs[0], specs[5])

	plain := harness.NewTestSuite()
	plain.ScaleDiv = 40
	want, err := plain.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}

	traced := harness.NewTestSuite()
	traced.ScaleDiv = 40
	traced.Jobs = 4
	traced.Traces = disptrace.NewCache(t.TempDir())
	got, err := traced.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d (%s/%s on %s): grouped replay diverged\n  direct %+v\n  traced %+v",
				i, specs[i].W.Name, specs[i].V.Name, specs[i].M.Name, want[i], got[i])
		}
	}
}

// TestSuiteTraceCacheEquivalence: a suite with the trace cache
// enabled produces byte-identical counters to a plain suite across a
// mixed grid, and a second (warm) suite sharing the directory loads
// instead of re-recording.
func TestSuiteTraceCacheEquivalence(t *testing.T) {
	dir := t.TempDir()
	pairs := tracePairs(t)
	machines := []cpu.Machine{cpu.Celeron800, cpu.PentiumM, cpu.Pentium4Northwood}

	baseline := map[string]metrics.Counters{}
	plain := harness.NewTestSuite()
	plain.ScaleDiv = 40
	for _, p := range pairs {
		for _, m := range machines {
			c, err := plain.Run(p.w, p.v, m)
			if err != nil {
				t.Fatal(err)
			}
			baseline[p.w.Name+"/"+p.v.Name+"/"+m.Name] = c
		}
	}

	check := func(label string, s *harness.Suite) {
		t.Helper()
		for _, p := range pairs {
			for _, m := range machines {
				c, err := s.Run(p.w, p.v, m)
				if err != nil {
					t.Fatalf("%s: %s/%s on %s: %v", label, p.w.Name, p.v.Name, m.Name, err)
				}
				want := baseline[p.w.Name+"/"+p.v.Name+"/"+m.Name]
				if c != want {
					t.Errorf("%s: %s/%s on %s: counters diverged\n  direct %+v\n  traced %+v",
						label, p.w.Name, p.v.Name, m.Name, want, c)
				}
			}
		}
	}

	cold := harness.NewTestSuite()
	cold.ScaleDiv = 40
	cold.Traces = disptrace.NewCache(dir)
	check("cold cache", cold)

	files, err := filepath.Glob(filepath.Join(dir, "*.vmdt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(pairs) {
		t.Errorf("expected %d cached traces, found %d", len(pairs), len(files))
	}

	warm := harness.NewTestSuite()
	warm.ScaleDiv = 40
	warm.Traces = disptrace.NewCache(dir)
	check("warm cache", warm)
}
