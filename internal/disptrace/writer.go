package disptrace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"vmopt/internal/cpu"
	"vmopt/internal/steptok"
)

// Writer records the event stream of one simulated run into an
// in-memory trace. It implements cpu.Sink and cpu.StepSink: attach it
// to a cpu.Sim and run the engine, then call Trace to finalize. It
// tokenizes step IDs as they arrive (see package steptok), so the
// stream is written once, in its resident form.
//
// A step — one VM instruction's events — reaches the writer one of two
// ways. core.Run interns the events of each step it lowers once
// (InternStep) and then records the step's ID per executed instruction
// (RecordSteps, in batches); any other step it records whole
// (RecordStep). Either way two steps share an ID only when their op
// lists are identical, op for op — a hash only picks the candidates to
// compare.
type Writer struct {
	h Header

	// dictOps holds the dictionary entries back to back, entry k
	// ending at dictEnds[k].
	dictOps  []cpu.Op
	dictEnds []int
	// enc tokenizes the step stream, and uses counts each ID's steps.
	enc  steptok.Encoder
	uses []uint64
	// index maps hashOps of an entry to the IDs of every entry with
	// that hash.
	index map[uint64][]uint32
}

// NewWriter starts a trace with the given metadata (the writer fills
// the stream totals itself).
func NewWriter(h Header) *Writer {
	h.CodeBytes = 0
	return &Writer{h: h, index: make(map[uint64][]uint32)}
}

// RecordStep implements cpu.Sink: it appends the ID of ops.
func (w *Writer) RecordStep(ops []cpu.Op) { w.RecordSteps([]uint32{w.InternStep(ops)}) }

// RecordCodeBytes implements cpu.Sink.
func (w *Writer) RecordCodeBytes(n uint64) { w.h.CodeBytes += n }

// InternStep implements cpu.StepSink. It returns the dictionary ID of
// ops, adding an entry when no existing one is equal to it op for op,
// so IDs keep the order of first sight.
func (w *Writer) InternStep(ops []cpu.Op) uint32 {
	h := hashOps(ops)
	for _, id := range w.index[h] {
		if slices.Equal(w.entry(id), ops) {
			return id
		}
	}
	id := uint32(len(w.dictEnds))
	w.index[h] = append(w.index[h], id)
	w.dictOps = append(w.dictOps, ops...)
	w.dictEnds = append(w.dictEnds, len(w.dictOps))
	w.uses = append(w.uses, 0)
	return id
}

// RecordSteps implements cpu.StepSink. It appends ids, which must come
// from InternStep.
func (w *Writer) RecordSteps(ids []uint32) {
	for _, id := range ids {
		w.uses[id]++
	}
	w.enc.Append(ids)
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
// hash equal; unequal ones rarely collide, and InternStep compares
// the ops anyway.
func hashOps(ops []cpu.Op) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xff51afd7ed558ccd
	h := uint64(len(ops))
	for _, op := range ops {
		h = (h^op.A^uint64(op.Kind)<<61)*m1 ^ op.B
		h = (h^op.C)*m2 ^ h>>29
	}
	return h
}

// Trace returns the finished trace. The writer must not be used
// afterwards. The dictionary's ops and the token stream move to
// backing arrays of their exact size, so the trace holds, and
// Arena.Bytes weighs, what Decode of its encoding holds. The stream
// totals in the header come from each entry's events times its use
// count.
func (w *Writer) Trace() *Trace {
	a := &Arena{
		dict: sliceEntries(exact(w.dictOps), w.dictEnds),
		toks: exact(w.enc.Tokens()),
	}
	for _, n := range w.uses {
		a.steps += n
	}
	h := w.h
	h.VMInstructions = a.steps
	h.Dispatches, h.Fetches, h.WorkInstrs = a.totals(w.uses)
	return &Trace{Header: h, arena: a}
}

// exact copies s into an array of its length, or returns nil for an
// empty s.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
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
// loading its dictionary or inflating its token stream. It reads a small prefix
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
