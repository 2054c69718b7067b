package disptrace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
		Scale: 7, ScaleDiv: 40, MaxSteps: 1 << 20, ISAHash: 0xdeadbeef,
	}
}

// recordSteps records each step's ops into w whole, as core.Run
// records a step it does not lower.
func recordSteps(w *disptrace.Writer, steps ...[]cpu.Op) {
	for _, ops := range steps {
		w.RecordStep(ops)
	}
}

// streamOps expands a trace's whole op stream through a cursor.
func streamOps(tr *disptrace.Trace) []cpu.Op {
	var ops []cpu.Op
	c := disptrace.NewCursor(tr)
	for ok := true; ok; {
		ops, ok = c.NextBatch(ops)
	}
	return ops
}

func TestRoundTrip(t *testing.T) {
	ops := []cpu.Op{
		{Kind: cpu.OpWork, A: 0},
		{Kind: cpu.OpWork, A: 3},
		{Kind: cpu.OpWork, A: 300}, // beyond the inline-tag range
		{Kind: cpu.OpFetch, A: 0x2000, B: 24},
		{Kind: cpu.OpFetch, A: 0x1fc0, B: 8}, // negative delta
		{Kind: cpu.OpDispatch, A: 0x2040, B: 7, C: 0x2100},
		{Kind: cpu.OpDispatch, A: 0x2140, B: 2, C: 0x2000}, // target below branch
		{Kind: cpu.OpWork, A: 1 << 40},                     // huge work burst
		{Kind: cpu.OpFetch, A: 1<<63 + 5, B: 64},
		{Kind: cpu.OpDispatch, A: 1 << 62, B: 1 << 30, C: 3},
	}
	w := disptrace.NewWriter(testHeader())
	w.RecordCodeBytes(4096)
	recordSteps(w, nil, ops) // an empty step, then the rest
	tr := w.Trace()

	if tr.Header.Dispatches != 3 || tr.Header.Fetches != 3 || tr.Header.VMInstructions != 2 ||
		tr.Header.CodeBytes != 4096 || tr.Header.WorkInstrs != 3+300+1<<40 {
		t.Fatalf("writer totals wrong: %+v", tr.Header)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Arena().DictSteps(); got != 2 {
		t.Fatalf("dictionary holds %d steps, want 2 (empty and the rest)", got)
	}

	enc := tr.Encode()
	got, err := disptrace.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("decoded trace differs from the writer's:\n  got  %+v\n  want %+v", got, tr)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encoding the decoded trace changed its bytes")
	}
	if back := streamOps(got); !slices.Equal(back, ops) {
		t.Fatalf("stream round trip:\n  got  %+v\n  want %+v", back, ops)
	}
}

// TestDictionaryDedup: steps share an ID exactly when their op lists
// are identical, op for op — a step differing in any one field gets
// its own entry — and the dictionary numbers steps in first-seen
// order.
func TestDictionaryDedup(t *testing.T) {
	step := []cpu.Op{
		{Kind: cpu.OpWork, A: 2},
		{Kind: cpu.OpFetch, A: 0x1000, B: 8},
		{Kind: cpu.OpWork, A: 1},
		{Kind: cpu.OpFetch, A: 0x1028, B: 4},
		{Kind: cpu.OpDispatch, A: 0x1028, B: 9, C: 0x2000},
	}
	variants := [][]cpu.Op{step}
	for i := range step {
		for _, field := range []int{0, 1, 2} {
			v := slices.Clone(step)
			switch field {
			case 0:
				v[i].A++
			case 1:
				v[i].B++
			case 2:
				v[i].C++
			}
			if (field == 2 && v[i].Kind != cpu.OpDispatch) || (field == 1 && v[i].Kind == cpu.OpWork) {
				continue // fields the op kind does not record
			}
			variants = append(variants, v)
		}
	}
	variants = append(variants, step[:4], step[1:], nil)

	w := disptrace.NewWriter(testHeader())
	var want []cpu.Op
	for range 3 {
		for _, v := range variants {
			recordSteps(w, v)
			want = append(want, v...)
		}
	}
	tr := w.Trace()
	if got := tr.Arena().DictSteps(); got != len(variants) {
		t.Fatalf("dictionary holds %d steps for %d distinct op lists", got, len(variants))
	}
	if got := streamOps(tr); !slices.Equal(got, want) {
		t.Fatal("deduplicated stream does not expand to the recorded one")
	}
	c := disptrace.NewCursor(tr)
	for i := range 3 * len(variants) {
		st, ok := c.Next()
		if !ok || !slices.Equal(st.Ops, variants[i%len(variants)]) {
			t.Fatalf("step %d: got %+v want %+v", i, st.Ops, variants[i%len(variants)])
		}
	}
}

// TestWriterStepsMatchEvents: a writer fed steps by ID (InternStep,
// then RecordSteps in batches of any size) mixed with whole steps
// (RecordStep) produces the trace of a writer fed every step whole:
// the same bytes, header totals and resident weight. The stream runs
// past several of the writer's ID chunks, and some batches span a
// chunk boundary.
func TestWriterStepsMatchEvents(t *testing.T) {
	steps := [][]cpu.Op{
		{{Kind: cpu.OpWork, A: 2}, {Kind: cpu.OpFetch, A: 0x1000, B: 8}, {Kind: cpu.OpWork, A: 1},
			{Kind: cpu.OpFetch, A: 0x1008, B: 4}, {Kind: cpu.OpDispatch, A: 0x1008, B: 9, C: 0x2000}},
		{{Kind: cpu.OpWork, A: 3}, {Kind: cpu.OpFetch, A: 0x2000, B: 8}, {Kind: cpu.OpWork, A: 1}},
		{{Kind: cpu.OpWork, A: 5}, {Kind: cpu.OpWork, A: 3}, {Kind: cpu.OpFetch, A: 0x2008, B: 12}},
		nil,
	}
	want, got := disptrace.NewWriter(testHeader()), disptrace.NewWriter(testHeader())
	for _, w := range []*disptrace.Writer{want, got} {
		w.RecordCodeBytes(64)
	}
	r := rand.New(rand.NewSource(1))
	var batch []uint32
	for range 50_000 {
		ops := steps[r.Intn(len(steps))]
		want.RecordStep(ops)
		if r.Intn(500) == 0 {
			got.RecordSteps(batch)
			batch = batch[:0]
			got.RecordStep(ops)
		} else {
			batch = append(batch, got.InternStep(ops))
		}
	}
	got.RecordSteps(batch)
	a, b := got.Trace(), want.Trace()
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	if a.Header != b.Header || !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("recording by ID differs:\n  got  %+v\n  want %+v", a.Header, b.Header)
	}
	if g, w := a.Arena().Bytes(), b.Arena().Bytes(); g != w {
		t.Fatalf("recording by ID weighs %d bytes, the whole-step one %d", g, w)
	}
}

// TestRecordingWeighsItsDecodedForm: a fresh recording weighs what the
// same trace decoded from its encoding weighs, so it takes the same
// share of the memory tier's budget whichever way it arrived there.
func TestRecordingWeighsItsDecodedForm(t *testing.T) {
	w, err := workload.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	v, err := harness.VariantByName(w, "plain")
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewTestSuite()
	s.ScaleDiv = 100
	tr, _, err := s.RecordTrace(w, v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	back, err := disptrace.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := tr.Arena().Bytes(), back.Arena().Bytes(); g != w {
		t.Fatalf("recording weighs %d bytes, its decoded form %d", g, w)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, []cpu.Op{
		{Kind: cpu.OpDispatch, A: 0x40, B: 1, C: 0x80},
		{Kind: cpu.OpWork, A: 12},
	})
	tr := w.Trace()
	enc := tr.Encode()

	if _, err := disptrace.Decode(nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := disptrace.Decode([]byte("VMXT????????????")); err == nil {
		t.Error("bad magic must error")
	}
	for n := range enc {
		if _, err := disptrace.Decode(enc[:n]); err == nil {
			t.Errorf("trace truncated to %d of %d bytes decoded", n, len(enc))
		}
	}
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		// A flip anywhere must be caught by the magic, version or
		// checksum checks: surviving decode means corruption went
		// unnoticed.
		if _, err := disptrace.Decode(mut); err == nil {
			t.Errorf("flip at byte %d not detected", i)
		}
	}
}

// TestDecodeRejectsOldVersions: a file whose version bytes name any
// format but the current one — v3's segments and v4's prelude
// included — is refused by both readers with an error that names the
// version and asks to re-record, before the checksum (which still
// matches) is even read.
func TestDecodeRejectsOldVersions(t *testing.T) {
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, []cpu.Op{
		{Kind: cpu.OpWork, A: 7},
		{Kind: cpu.OpFetch, A: 0x2000, B: 24},
		{Kind: cpu.OpDispatch, A: 0x2040, B: 3, C: 0x2100},
	})
	enc := w.Trace().Encode()
	for _, v := range []uint16{0, 1, 2, 3, 4, 5, 7} {
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

// TestCompressionRatio: on a real dispatch stream, flate must shrink
// the step-ID stream at least 3x (the measured ratio is 15x+; the
// assertion leaves headroom for stream changes), and the dictionary
// must hold far fewer steps than the run executes.
func TestCompressionRatio(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	s.ScaleDiv = 40
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	enc := tr.Encode()
	m, err := disptrace.DecodeMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if m.StreamStoredBytes*3 > m.StreamRawBytes {
		t.Errorf("ID stream is %d bytes stored, %d raw: compression under 3x", m.StreamStoredBytes, m.StreamRawBytes)
	}
	if uint64(m.DictSteps)*100 > tr.Header.VMInstructions {
		t.Errorf("%d distinct steps for %d VM instructions: the dictionary does not deduplicate", m.DictSteps, tr.Header.VMInstructions)
	}
	if m.DictSteps != tr.Arena().DictSteps() || m.Header != tr.Header {
		t.Errorf("metadata %+v disagrees with the trace", m)
	}
	t.Logf("%d steps, %d distinct; ID stream %d -> %d bytes; file %d bytes",
		tr.Header.VMInstructions, m.DictSteps, m.StreamRawBytes, m.StreamStoredBytes, len(enc))
}

// fixCRC recomputes the container checksum after a test mutates the
// body, so corruption below the checksum reaches the decoder's
// structural checks.
func fixCRC(enc []byte) {
	binary.LittleEndian.PutUint32(enc[6:10], crc32.ChecksumIEEE(enc[10:]))
}

// tracePair is one (workload, variant): the unit a trace records.
type tracePair struct {
	w *workload.Workload
	v harness.Variant
}

// tracePairs are the (workload, variant) pairs of the smaller
// equivalence tests: three pairs spanning both VMs and static,
// dynamic and plain techniques (quickening included via the JVM
// workload).
func tracePairs(t *testing.T) []tracePair {
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
	return []tracePair{
		{gray, harness.Variant{Name: "plain", Technique: core.TPlain}},
		{brainless, harness.Variant{Name: "dynamic super", Technique: core.TDynamicSuper}},
		{compress, harness.Variant{Name: "across bb", Technique: core.TAcrossBB}},
	}
}

// TestReplayEquivalence is the tentpole guarantee, on every pair of
// the paper grid at a cheap scale: a trace recorded on one machine
// and replayed on each of the five paper machines yields counters
// byte-identical to directly simulating on that machine — the float
// cycle counters included — and the recording run's own counters
// equal a plain run on the recording machine. Each trace's wire form
// is canonical (Encode(Decode(b)) == b) and decodes to exactly the
// writer's resident form. tracePairs additionally replay on the
// non-paper predictors: 2-bit counters, a 64-entry BTB, and the
// case-block predictor, the only one that reads the dispatch hint
// (op.B) the dictionary stores.
func TestReplayEquivalence(t *testing.T) {
	var pairs []tracePair
	for _, w := range workload.Forth() {
		for _, v := range harness.ForthVariants() {
			pairs = append(pairs, tracePair{w, v})
		}
	}
	for _, w := range workload.Java() {
		for _, v := range harness.JavaVariants() {
			pairs = append(pairs, tracePair{w, v})
		}
	}
	machines := cpu.Machines()
	extra := []cpu.Machine{
		cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc),    // BTB + 2-bit counters
		cpu.Celeron800.WithPredictor(cpu.PredictCaseBlock), // operand-keyed
		cpu.Celeron800.WithBTBEntries(64),                  // capacity-miss regime
	}
	isExtra := make(map[string]bool) // "workload/variant" of tracePairs
	for _, p := range tracePairs(t) {
		isExtra[p.w.Name+"/"+p.v.Name] = true
	}
	var specs []harness.RunSpec
	for _, p := range pairs {
		for _, m := range machines {
			specs = append(specs, harness.RunSpec{W: p.w, V: p.v, M: m})
		}
		if isExtra[p.w.Name+"/"+p.v.Name] {
			for _, m := range extra {
				specs = append(specs, harness.RunSpec{W: p.w, V: p.v, M: m})
			}
		}
	}
	if len(isExtra) != len(tracePairs(t)) {
		t.Fatal("tracePairs holds duplicates")
	}
	s := harness.NewTestSuite()
	s.ScaleDiv = 50
	s.Jobs = runtime.GOMAXPROCS(0)
	direct, err := s.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	seenExtra := 0
	for _, p := range pairs {
		ms := machines
		if isExtra[p.w.Name+"/"+p.v.Name] {
			ms = append(slices.Clip(machines), extra...)
			seenExtra++
		}
		want := direct[:len(ms)]
		direct = direct[len(ms):]

		tr, recCounters, err := s.RecordTrace(p.w, p.v, ms[0])
		if err != nil {
			t.Fatalf("%s/%s: record: %v", p.w.Name, p.v.Name, err)
		}
		if tr.Header.Dispatches == 0 {
			t.Fatalf("%s/%s: empty dispatch stream", p.w.Name, p.v.Name)
		}
		if recCounters != want[0] {
			t.Errorf("%s/%s: recording run disagrees with plain run: %v vs %v",
				p.w.Name, p.v.Name, recCounters, want[0])
		}
		enc := tr.Encode()
		dec, err := disptrace.Decode(enc)
		if err != nil {
			t.Fatalf("%s/%s: decode: %v", p.w.Name, p.v.Name, err)
		}
		if !reflect.DeepEqual(dec, tr) {
			t.Errorf("%s/%s: decoded trace differs from the writer's", p.w.Name, p.v.Name)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Errorf("%s/%s: re-encoding the decoded trace changed its bytes", p.w.Name, p.v.Name)
		}
		for k, m := range ms {
			replayed, err := disptrace.ReplayMachine(dec, m)
			if err != nil {
				t.Fatalf("%s/%s on %s: replay: %v", p.w.Name, p.v.Name, m.Name, err)
			}
			if replayed != want[k] {
				t.Errorf("%s/%s on %s: replay diverged:\n  direct   %+v\n  replayed %+v",
					p.w.Name, p.v.Name, m.Name, want[k], replayed)
			}
		}
	}
	if seenExtra != len(isExtra) {
		t.Fatalf("only %d of %d tracePairs are paper-grid pairs", seenExtra, len(isExtra))
	}
}

// TestReplayEachMatchesSolo: the parallel broadcast (one applier
// goroutine per sim) must deliver every machine the counters a solo
// replay produces, from the writer's form and from the decoded wire
// form alike.
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
	for name, src := range map[string]*disptrace.Trace{"mem": tr, "wire": wire} {
		sims := make([]*cpu.Sim, len(machines))
		for i, m := range machines {
			sims[i] = cpu.NewSim(m)
		}
		if err := disptrace.ReplayEach(context.Background(), src, sims); err != nil {
			t.Fatalf("%s: ReplayEach: %v", name, err)
		}
		for i, m := range machines {
			solo, err := disptrace.ReplayMachine(tr, m)
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

// TestReplayParallelMatchesSequential: the jobs hint Replay accepts
// must not change results.
func TestReplayParallelMatchesSequential(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := disptrace.ReplayMachine(tr, cpu.Pentium4Northwood)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{0, 2, 4, 8} {
		sim := cpu.NewSim(cpu.Pentium4Northwood)
		if err := disptrace.Replay(tr, sim, jobs); err != nil {
			t.Fatal(err)
		}
		if par := sim.C; par != seq {
			t.Errorf("jobs=%d: parallel replay diverged:\n  seq %+v\n  par %+v", jobs, seq, par)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	w := disptrace.NewWriter(testHeader())
	recordSteps(w, []cpu.Op{
		{Kind: cpu.OpDispatch, A: 0x40, B: 1, C: 0x80},
		{Kind: cpu.OpWork, A: 9},
		{Kind: cpu.OpFetch, A: 0x100, B: 16},
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
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("trace changed across save/load: %+v vs %+v", got, tr)
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
		recordSteps(w, []cpu.Op{{Kind: cpu.OpDispatch, A: 0x40, B: 1, C: 0x80}})
		return w.Trace(), nil
	}

	tr1, recorded, err := c.GetOrRecord(k, record)
	if err != nil || !recorded || calls != 1 {
		t.Fatalf("first call: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	tr2, recorded, err := c.GetOrRecord(k, record)
	if err != nil || recorded || calls != 1 {
		t.Fatalf("second call should load the recording: err=%v recorded=%v calls=%d", err, recorded, calls)
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

	// Corrupt the file on disk. Memory keeps serving the recording
	// until the disk is read again.
	if err := os.WriteFile(c.Path(k), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recorded, err = c.GetOrRecord(k, record); err != nil || recorded || calls != 2 {
		t.Fatalf("memory should serve over a corrupt file: err=%v recorded=%v calls=%d", err, recorded, calls)
	}

	// A restarted cache reads the disk: it must heal by re-recording.
	c = disptrace.NewCache(c.Dir)
	if _, recorded, err = c.GetOrRecord(k, record); err != nil || !recorded || calls != 3 {
		t.Fatalf("corrupt file should re-record: err=%v recorded=%v calls=%d", err, recorded, calls)
	}

	// A file whose header doesn't match its key is rejected too
	// (simulates a renamed/stale cache entry) by a restarted cache.
	other := disptrace.NewWriter(disptrace.Header{Workload: "tscp"})
	if err := other.Trace().Save(c.Path(k)); err != nil {
		t.Fatal(err)
	}
	c = disptrace.NewCache(c.Dir)
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
		recordSteps(w, []cpu.Op{{Kind: cpu.OpWork, A: 1}})
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
