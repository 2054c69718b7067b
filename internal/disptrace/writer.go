package disptrace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"vmopt/internal/cpu"
)

// Writer records the event stream of one simulated run into an
// in-memory trace. It implements cpu.Sink: attach it to a cpu.Sim and
// run the engine, then call Trace to finalize.
//
// The writer collects each VM instruction's events (RecordVMInst
// marks instruction starts) and interns the finished step into the
// step dictionary: two steps share an ID only when their op lists are
// identical, op for op — a hash only picks the candidates to compare.
// Events before the first instruction form the prelude, which belongs
// to no step.
type Writer struct {
	h Header
	// started marks that the first VM instruction has begun; cur holds
	// the open step's ops (the prelude's before that).
	started bool
	cur     []cpu.Op
	prelude []cpu.Op

	// dictOps holds the dictionary entries back to back, entry k
	// ending at dictEnds[k].
	dictOps  []cpu.Op
	dictEnds []int
	ids      []uint32
	// index maps hashOps of an entry to the IDs of every entry with
	// that hash.
	index map[uint64][]uint32
	// follow[k] is the ID that last came after entry k. Interpreter
	// streams repeat their step sequences, so comparing the open step
	// against it first finds most steps without hashing.
	follow []uint32
}

// NewWriter starts a trace with the given metadata (the writer fills
// the stream totals itself).
func NewWriter(h Header) *Writer {
	h.VMInstructions = 0
	h.CodeBytes = 0
	h.Dispatches = 0
	h.Fetches = 0
	h.WorkInstrs = 0
	return &Writer{h: h, index: make(map[uint64][]uint32)}
}

// RecordWork implements cpu.Sink.
func (w *Writer) RecordWork(n int) {
	if n < 0 {
		n = 0
	}
	w.h.WorkInstrs += uint64(n)
	w.cur = append(w.cur, cpu.Op{Kind: cpu.OpWork, A: uint64(n)})
}

// RecordFetch implements cpu.Sink.
func (w *Writer) RecordFetch(addr uint64, size int) {
	if size < 0 {
		size = 0
	}
	w.h.Fetches++
	w.cur = append(w.cur, cpu.Op{Kind: cpu.OpFetch, A: addr, B: uint64(size)})
}

// RecordDispatch implements cpu.Sink.
func (w *Writer) RecordDispatch(branch, hint, target uint64) {
	w.h.Dispatches++
	w.cur = append(w.cur, cpu.Op{Kind: cpu.OpDispatch, A: branch, B: hint, C: target})
}

// RecordVMInst implements cpu.Sink. It closes the open step (or the
// prelude) and opens the next one.
func (w *Writer) RecordVMInst() {
	w.h.VMInstructions++
	w.closeStep()
	w.started = true
}

// RecordCodeBytes implements cpu.Sink.
func (w *Writer) RecordCodeBytes(n uint64) { w.h.CodeBytes += n }

// closeStep appends the open step's ID to the stream, interning the
// step on first sight — or, before the first instruction, keeps the
// collected ops as the prelude.
func (w *Writer) closeStep() {
	if !w.started {
		if len(w.cur) > 0 {
			w.prelude = append([]cpu.Op(nil), w.cur...)
		}
		w.cur = w.cur[:0]
		return
	}
	id := w.intern()
	if n := len(w.ids); n > 0 {
		w.follow[w.ids[n-1]] = id
	}
	w.ids = append(w.ids, id)
	w.cur = w.cur[:0]
}

// intern returns the dictionary ID of the open step's op list, adding
// an entry when no existing one is equal to it op for op.
func (w *Writer) intern() uint32 {
	if n := len(w.ids); n > 0 {
		if id := w.follow[w.ids[n-1]]; slices.Equal(w.entry(id), w.cur) {
			return id
		}
	}
	h := hashOps(w.cur)
	for _, id := range w.index[h] {
		if slices.Equal(w.entry(id), w.cur) {
			return id
		}
	}
	id := uint32(len(w.dictEnds))
	w.index[h] = append(w.index[h], id)
	w.dictOps = append(w.dictOps, w.cur...)
	w.dictEnds = append(w.dictEnds, len(w.dictOps))
	w.follow = append(w.follow, id)
	return id
}

// entry returns dictionary entry id's ops.
func (w *Writer) entry(id uint32) []cpu.Op {
	lo := 0
	if id > 0 {
		lo = w.dictEnds[id-1]
	}
	return w.dictOps[lo:w.dictEnds[id]]
}

// hashOps mixes every field of an op list into 64 bits. Equal lists
// hash equal; unequal ones rarely collide, and intern compares the
// ops anyway.
func hashOps(ops []cpu.Op) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xff51afd7ed558ccd
	h := uint64(len(ops))
	for _, op := range ops {
		h = (h^op.A^uint64(op.Kind)<<61)*m1 ^ op.B
		h = (h^op.C)*m2 ^ h>>29
	}
	return h
}

// Trace closes the last step and returns the finished trace. The
// writer must not be used afterwards. The dictionary's ops move to a
// backing array of their exact size, so Arena.Bytes, which counts
// them by length, is what the trace holds; the far larger ID stream
// keeps its append-grown array and is weighed by capacity instead of
// copied.
func (w *Writer) Trace() *Trace {
	w.closeStep()
	return &Trace{Header: w.h, arena: &Arena{
		dict:    sliceEntries(append(make([]cpu.Op, 0, len(w.dictOps)), w.dictOps...), w.dictEnds),
		prelude: w.prelude,
		ids:     w.ids,
	}}
}

// Save writes the trace to path atomically (temp file + rename), so a
// crashed or concurrent writer never leaves a half-written trace
// behind for readers to trip over.
func (t *Trace) Save(path string) error { return atomicWrite(path, t.Encode()) }

// atomicWrite writes b to path via a temp file + rename in path's
// directory (created if needed), so readers only ever observe whole
// files. The cache's fault-injected store path shares it with Save.
func atomicWrite(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("disptrace: %w", err)
	}
	f, err := os.CreateTemp(dir, ".vmdt-*")
	if err != nil {
		return fmt.Errorf("disptrace: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(b)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("disptrace: saving %s: %w", path, werr)
	}
	return nil
}

// Load reads and decodes a trace file.
func Load(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("disptrace: %w", err)
	}
	t, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("disptrace: loading %s: %w", path, err)
	}
	return t, nil
}

// metaReadAhead is the prefix ReadMeta reads first: the header and
// index of any realistic trace take well under a hundred bytes, so
// listing a cache directory reads one small block per file instead of
// whole traces.
const metaReadAhead = 4 << 10

// ReadMeta reads a trace file's metadata — header and index — without
// loading its dictionary or inflating its ID stream. It reads a small prefix
// and falls back to the whole file only when the index genuinely
// extends past it.
func ReadMeta(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, fmt.Errorf("disptrace: %w", err)
	}
	defer f.Close()
	buf := make([]byte, metaReadAhead)
	n, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return Meta{}, fmt.Errorf("disptrace: %w", err)
	}
	m, merr := DecodeMeta(buf[:n])
	if merr == nil {
		return m, nil
	}
	if n < metaReadAhead {
		// The whole file fit in the prefix; the failure is real.
		return Meta{}, fmt.Errorf("disptrace: reading metadata of %s: %w", path, merr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, fmt.Errorf("disptrace: %w", err)
	}
	m, merr = DecodeMeta(b)
	if merr != nil {
		return Meta{}, fmt.Errorf("disptrace: reading metadata of %s: %w", path, merr)
	}
	return m, nil
}
