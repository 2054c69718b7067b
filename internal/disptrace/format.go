// Package disptrace records and replays the dispatch stream of a
// simulated interpreter run.
//
// Every cell of the experiment grid re-executes the guest VM even
// when only the machine model differs, yet the event stream the
// interpreter core drives into cpu.Sim — straight-line work,
// instruction fetches and indirect dispatches — depends only on the
// (workload, variant, scale) triple, never on the machine (cpu.Sim
// does not feed back into execution). This package captures that
// stream once in a versioned, compact binary format and replays it
// through any btb.Predictor and icache model, reproducing the full
// counter set of a direct simulation byte for byte: integer counters
// trivially, and the float cycle counters too, because replay applies
// the exact same sequence of float additions in the exact same order.
//
// An interpreter is a small dictionary of code fragments driven by a
// long stream of dispatches, and its event stream has the same shape:
// the events of one VM instruction (a step) repeat exactly whenever
// the same instruction runs at the same place. A trace therefore
// stores each distinct step once, in a step dictionary, and the run
// as one step ID per executed VM instruction:
//
//	magic "VMDT" | version u16 LE | crc32 u32 LE (of everything after)
//	header block   (length-prefixed; metadata + stream totals)
//	index          (uvarint dictionary steps, ID-stream raw bytes,
//	                ID-stream stored bytes)
//	dictionary     (per step: uvarint op count, then its ops)
//	ID stream      (one uvarint step ID per VM instruction, flate)
//
// Every event belongs to a step. Ops are varint-encoded with delta
// bases that reset at the start of every dictionary entry. Decoding
// yields the resident form directly (see Arena): the dictionary's ops
// and a []uint32 of step IDs, every ID checked against the dictionary
// size. The writer builds the same form, so a trace is one
// representation on disk, in memory and in replay. A Cursor seeks by
// VM instruction with an index lookup, and replay applies the
// dictionary entry of each ID in turn.
//
// The format is v5, and it is the only version this package reads:
// files written by older versions (v1–v3 with record segments, v4 with
// a prelude of events before the first step) are rejected with an
// error asking to re-record them. The trace cache never serves them
// anyway, since every cache key hashes Version.
package disptrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"vmopt/internal/cpu"
)

// Version is the trace format version this package writes, and the
// only one it reads.
const Version = 5

// magic identifies a dispatch trace file.
var magic = [4]byte{'V', 'M', 'D', 'T'}

// prefixLen is the fixed file prefix: magic, version and checksum.
const prefixLen = 10

// Op tag space. Tags >= tagWorkBase inline small work counts into the
// tag byte itself.
const (
	tagWorkExt  = 0 // Work(n), n as uvarint (n > maxInlineWork)
	tagFetch    = 1 // Fetch: varint addr delta, uvarint size
	tagDispatch = 2 // Dispatch: varint branch delta, uvarint hint, varint target - branch
	tagWorkBase = 3 // Work(tag - tagWorkBase) for tag in [3, 255]

	maxInlineWork = 255 - tagWorkBase
)

// Header carries the trace metadata: what was recorded (enough to
// re-create the recording run for verification) plus stream totals.
type Header struct {
	// Workload, Lang, Variant and Technique identify the recorded
	// configuration (workload.Workload name and language, harness
	// variant label, core.Technique name).
	Workload  string
	Lang      string
	Variant   string
	Technique string
	// Scale is the absolute workload scale of the recording run;
	// ScaleDiv is the suite divisor it was derived from (needed to
	// reproduce the training runs of static variants, whose profiles
	// run at the same divisor).
	Scale    uint64
	ScaleDiv uint64
	// MaxSteps is the VM step bound of the recording run.
	MaxSteps uint64
	// ISAHash fingerprints the VM instruction set (HashISA); a trace
	// is only valid against the ISA it was recorded under.
	ISAHash uint64

	// VMInstructions and CodeBytes are stream totals that need no
	// ordering (pure integer accumulation): executed VM instructions
	// — the length of the step-ID stream — and run-time generated
	// code bytes.
	VMInstructions uint64
	CodeBytes      uint64
	// Dispatches, Fetches and WorkInstrs count the events of the
	// whole stream: dispatch and fetch events, and the sum of all
	// work amounts.
	Dispatches uint64
	Fetches    uint64
	WorkInstrs uint64
}

// Arena is a trace's resident form — what Decode returns, what the
// Writer builds and what replay, cursors and diffs read: the step
// dictionary and the step-ID stream. It is immutable once built and
// may be shared by any number of concurrent readers.
type Arena struct {
	// dict holds each distinct step's exact op list; entries with no
	// ops are nil.
	dict [][]cpu.Op
	// ids holds one dictionary index per executed VM instruction,
	// each below len(dict).
	ids []uint32
}

// Insts reports the number of VM instructions (steps) in the stream.
func (a *Arena) Insts() int { return len(a.ids) }

// DictSteps reports the number of distinct steps in the dictionary.
func (a *Arena) DictSteps() int { return len(a.dict) }

// Bytes reports the arena's resident memory footprint: the
// dictionary's ops and slice headers and the ID stream. The ID stream
// counts by capacity, which is what it holds; the Writer and Decode
// both size it exactly, so a recording weighs what its decoded form
// does.
func (a *Arena) Bytes() int64 {
	const opBytes = int64(unsafe.Sizeof(cpu.Op{}))
	const entryBytes = int64(unsafe.Sizeof([]cpu.Op(nil)))
	var ops int64
	for _, e := range a.dict {
		ops += int64(len(e))
	}
	return ops*opBytes + int64(len(a.dict))*entryBytes + int64(cap(a.ids))*4
}

// sliceEntries cuts the dictionary entries out of one backing array:
// entry k is ops[ends[k-1]:ends[k]], capped so an append can never
// spill into its neighbour, and nil when empty. The writer and the
// decoder share it, so both produce the same form.
func sliceEntries(ops []cpu.Op, ends []int) [][]cpu.Op {
	if len(ends) == 0 {
		return nil
	}
	dict := make([][]cpu.Op, len(ends))
	lo := 0
	for k, hi := range ends {
		if hi > lo {
			dict[k] = ops[lo:hi:hi]
		}
		lo = hi
	}
	return dict
}

// Trace is a complete dispatch trace: header plus resident form.
type Trace struct {
	Header Header

	arena *Arena
}

// Arena returns the trace's resident form.
func (t *Trace) Arena() *Arena { return t.arena }

// Compile returns the trace's resident form, which decoding already
// built; the error is always nil. Its only caller is perfbench's
// replay probe, and it goes with the next change to the benchmark.
func (t *Trace) Compile() (*Arena, error) { return t.arena, nil }

// Attach makes a the trace's resident form. Its only caller is
// perfbench's replay probe, and it goes with the next change to the
// benchmark.
func (t *Trace) Attach(a *Arena) { t.arena = a }

// maxStringLen bounds length-prefixed strings during decoding so a
// corrupt header cannot force a huge allocation.
const maxStringLen = 1 << 16

// maxIDBytes is the longest uvarint encoding of a step ID (a uint32).
const maxIDBytes = 5

// MaxFetchBytes bounds the size of one fetch in a decoded trace. The
// recorded engines fetch at most a few VM instructions' code at once
// (90 bytes across the paper grid), while replay touches every line a
// fetch covers: without the bound, a few crafted bytes could make one
// replay walk billions of lines.
const MaxFetchBytes = 64 << 10

// ErrFetchTooLarge reports a decoded fetch above MaxFetchBytes; test
// for it with errors.Is.
var ErrFetchTooLarge = errors.New("disptrace: fetch larger than 64 KiB")

// byteReader is a bounds-checked cursor over an encoded buffer. After
// any method reports failure the cursor stays failed ("sticky
// error"), so decode paths can defer a single error check.
type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("disptrace: truncated or malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("disptrace: truncated or malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("disptrace: truncated stream at offset %d", r.off)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *byteReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen || n > uint64(r.remaining()) {
		r.fail("disptrace: string length %d out of range at offset %d", n, r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *byteReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("disptrace: byte range %d out of bounds at offset %d", n, r.off)
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

// count reads an element count and bounds it by the bytes left, at
// minBytes per element, so no crafted count can reserve more memory
// than the input justifies.
func (r *byteReader) count(what string, minBytes int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.remaining()/minBytes) {
		r.fail("disptrace: %s count %d exceeds the %d bytes left", what, n, r.remaining())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendOps encodes ops with delta bases reset at the start: fetch
// addresses and dispatch branches chain off the last fetch or branch
// address (an engine dispatch branches from the address it just
// fetched, so its delta is zero), and a dispatch target is stored
// relative to its branch.
func appendOps(b []byte, ops []cpu.Op) []byte {
	var prev uint64
	for _, op := range ops {
		switch op.Kind {
		case cpu.OpWork:
			if op.A <= maxInlineWork {
				b = append(b, byte(tagWorkBase+op.A))
			} else {
				b = append(b, tagWorkExt)
				b = binary.AppendUvarint(b, op.A)
			}
		case cpu.OpFetch:
			b = append(b, tagFetch)
			b = binary.AppendVarint(b, int64(op.A-prev))
			b = binary.AppendUvarint(b, op.B)
			prev = op.A
		default:
			b = append(b, tagDispatch)
			b = binary.AppendVarint(b, int64(op.A-prev))
			b = binary.AppendUvarint(b, op.B)
			b = binary.AppendVarint(b, int64(op.C-op.A))
			prev = op.A
		}
	}
	return b
}

// readOps decodes n ops written by appendOps onto dst. Every op costs
// at least its tag byte, so n is checked against the bytes left
// before anything is reserved.
func (r *byteReader) readOps(dst []cpu.Op, n int) []cpu.Op {
	if n > r.remaining() {
		r.fail("disptrace: %d ops cannot fit in the %d bytes left", n, r.remaining())
	}
	var prev uint64
	for i := 0; i < n && r.err == nil; i++ {
		switch tag := r.byte(); {
		case tag >= tagWorkBase:
			dst = append(dst, cpu.Op{Kind: cpu.OpWork, A: uint64(tag - tagWorkBase)})
		case tag == tagWorkExt:
			dst = append(dst, cpu.Op{Kind: cpu.OpWork, A: r.uvarint()})
		case tag == tagFetch:
			prev += uint64(r.varint())
			size := r.uvarint()
			if size > MaxFetchBytes {
				r.fail("%w: %d bytes at offset %d", ErrFetchTooLarge, size, r.off)
			}
			dst = append(dst, cpu.Op{Kind: cpu.OpFetch, A: prev, B: size})
		default: // tagDispatch
			prev += uint64(r.varint())
			hint := r.uvarint()
			dst = append(dst, cpu.Op{Kind: cpu.OpDispatch, A: prev, B: hint, C: prev + uint64(r.varint())})
		}
	}
	return dst
}

// encodeHeader serializes the header block (without its length
// prefix).
func encodeHeader(h Header) []byte {
	b := appendString(nil, h.Workload)
	b = appendString(b, h.Lang)
	b = appendString(b, h.Variant)
	b = appendString(b, h.Technique)
	for _, v := range []uint64{
		h.Scale, h.ScaleDiv, h.MaxSteps, h.ISAHash,
		h.VMInstructions, h.CodeBytes,
		h.Dispatches, h.Fetches, h.WorkInstrs,
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func decodeHeader(b []byte) (Header, error) {
	r := &byteReader{b: b}
	var h Header
	h.Workload = r.string()
	h.Lang = r.string()
	h.Variant = r.string()
	h.Technique = r.string()
	for _, p := range []*uint64{
		&h.Scale, &h.ScaleDiv, &h.MaxSteps, &h.ISAHash,
		&h.VMInstructions, &h.CodeBytes,
		&h.Dispatches, &h.Fetches, &h.WorkInstrs,
	} {
		*p = r.uvarint()
	}
	if r.err != nil {
		return Header{}, r.err
	}
	if r.off != len(b) {
		return Header{}, fmt.Errorf("disptrace: %d trailing bytes after header", len(b)-r.off)
	}
	return h, nil
}

// Encode serializes the trace to its on-disk byte form. Encoding is
// deterministic, so a decoded trace re-encodes to the bytes it came
// from.
func (t *Trace) Encode() []byte {
	a := t.arena
	var raw []byte
	for _, id := range a.ids {
		raw = binary.AppendUvarint(raw, uint64(id))
	}
	stream := deflate(raw)

	hdr := encodeHeader(t.Header)
	body := binary.AppendUvarint(nil, uint64(len(hdr)))
	body = append(body, hdr...)
	body = binary.AppendUvarint(body, uint64(len(a.dict)))
	body = binary.AppendUvarint(body, uint64(len(raw)))
	body = binary.AppendUvarint(body, uint64(len(stream)))
	for _, e := range a.dict {
		body = binary.AppendUvarint(body, uint64(len(e)))
		body = appendOps(body, e)
	}
	body = append(body, stream...)

	out := make([]byte, 0, prefixLen+len(body))
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// checkPrefix validates the fixed file prefix — length, magic and
// version — that Decode and DecodeMeta both read before anything
// else. A file of another format version is refused here, before its
// checksum is read.
func checkPrefix(b []byte) error {
	if len(b) < prefixLen {
		return fmt.Errorf("disptrace: %d bytes is too short for a trace", len(b))
	}
	if [4]byte(b[:4]) != magic {
		return fmt.Errorf("disptrace: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != Version {
		return fmt.Errorf("disptrace: trace format v%d is not readable (only v%d is); re-record the trace", v, Version)
	}
	return nil
}

// checkSum verifies the checksum over everything past the prefix of
// a file checkPrefix accepted.
func checkSum(b []byte) error {
	if binary.LittleEndian.Uint32(b[6:prefixLen]) != crc32.ChecksumIEEE(b[prefixLen:]) {
		return fmt.Errorf("disptrace: checksum mismatch (corrupt trace)")
	}
	return nil
}

// Meta summarizes a trace file from its header and index alone: the
// dictionary and the ID stream are neither parsed nor inflated, and
// no checksum is computed, so listing a cache directory stays cheap
// however large the traces are.
type Meta struct {
	Header Header
	// DictSteps is the number of distinct steps in the dictionary.
	DictSteps int
	// StreamRawBytes and StreamStoredBytes size the step-ID stream:
	// its uvarint bytes and their flate-compressed form on disk.
	StreamRawBytes    int
	StreamStoredBytes int
}

// readMeta parses the header and index that follow the file prefix,
// leaving r at the dictionary.
func readMeta(r *byteReader) (Meta, error) {
	hdrLen := r.uvarint()
	hdrBytes := r.bytes(hdrLen)
	if r.err != nil {
		return Meta{}, r.err
	}
	h, err := decodeHeader(hdrBytes)
	if err != nil {
		return Meta{}, err
	}
	dict, raw, stored := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return Meta{}, r.err
	}
	// The ID stream holds one uvarint per VM instruction, each 1 to
	// maxIDBytes long, and DEFLATE expands at most maxInflateRatio
	// times: a declared length outside those bounds is corrupt, and is
	// refused before anything is inflated or reserved.
	if raw < h.VMInstructions || raw > maxIDBytes*h.VMInstructions ||
		raw > maxInflateRatio*stored+64 || dict > math.MaxUint32 {
		return Meta{}, fmt.Errorf("disptrace: index (%d steps, %d raw / %d stored ID bytes) inconsistent with %d VM instructions",
			dict, raw, stored, h.VMInstructions)
	}
	return Meta{Header: h, DictSteps: int(dict), StreamRawBytes: int(raw), StreamStoredBytes: int(stored)}, nil
}

// DecodeMeta parses a trace's metadata from an encoded prefix. It
// accepts a partial buffer as long as the header and index are
// complete; bytes past the index are not touched (and the checksum,
// which covers them, is not verified — callers that need integrity
// use Decode).
func DecodeMeta(b []byte) (Meta, error) {
	if err := checkPrefix(b); err != nil {
		return Meta{}, err
	}
	return readMeta(&byteReader{b: b[prefixLen:]})
}

// Decode parses an encoded trace into its resident form, validating
// the magic, version and checksum and bounds-checking every field:
// dictionary and op counts are bounded by the input, every fetch by
// MaxFetchBytes (ErrFetchTooLarge), the declared ID-stream length is
// capped before inflating, every step ID must name a dictionary entry,
// and the stream's totals must match the header with an expanded op
// count linear in the input (see checkTotals). Corrupt input yields an
// error, never a panic.
func Decode(b []byte) (*Trace, error) {
	if err := checkPrefix(b); err != nil {
		return nil, err
	}
	if err := checkSum(b); err != nil {
		return nil, err
	}
	r := &byteReader{b: b[prefixLen:]}
	m, err := readMeta(r)
	if err != nil {
		return nil, err
	}

	// Each entry costs at least its op-count byte.
	if m.DictSteps > r.remaining() {
		return nil, fmt.Errorf("disptrace: %d dictionary steps cannot fit in the %d bytes left", m.DictSteps, r.remaining())
	}
	var ops []cpu.Op
	var ends []int
	if m.DictSteps > 0 {
		ends = make([]int, m.DictSteps)
	}
	for k := range ends {
		ops = r.readOps(ops, r.count("dictionary op", 1))
		ends[k] = len(ops)
	}
	a := &Arena{dict: sliceEntries(ops, ends)}
	stream := r.bytes(uint64(m.StreamStoredBytes))
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("disptrace: %d trailing bytes after the ID stream", r.remaining())
	}
	raw, err := inflate(stream, m.StreamRawBytes)
	if err != nil {
		return nil, err
	}
	uses := make([]uint64, len(a.dict))
	if a.ids, err = parseIDs(raw, m.Header.VMInstructions, uses); err != nil {
		return nil, err
	}
	if err := a.checkTotals(m.Header, uses); err != nil {
		return nil, err
	}
	return &Trace{Header: m.Header, arena: a}, nil
}

// parseIDs decodes exactly n uvarint step IDs from raw, each below
// len(uses), with no bytes left over, counting each ID's uses.
func parseIDs(raw []byte, n uint64, uses []uint64) ([]uint32, error) {
	if n == 0 {
		if len(raw) != 0 {
			return nil, fmt.Errorf("disptrace: %d ID-stream bytes for zero VM instructions", len(raw))
		}
		return nil, nil
	}
	// readMeta bounded n by the declared raw length, which inflate
	// just matched, so this reservation is proportional to the input.
	ids := make([]uint32, n)
	off := 0
	for i := range ids {
		var v uint64
		if off < len(raw) && raw[off] < 0x80 {
			v = uint64(raw[off])
			off++
		} else if off+1 < len(raw) && raw[off+1] < 0x80 {
			// Every ID of a dictionary of at most 16384 steps takes
			// one or two bytes, so decoding both inline spares most
			// streams a binary.Uvarint call per ID.
			v = uint64(raw[off]&0x7f) | uint64(raw[off+1])<<7
			off += 2
		} else {
			var k int
			v, k = binary.Uvarint(raw[off:])
			if k <= 0 {
				return nil, fmt.Errorf("disptrace: malformed step ID %d", i)
			}
			off += k
		}
		if v >= uint64(len(uses)) {
			return nil, fmt.Errorf("disptrace: step %d names ID %d of a %d-step dictionary", i, v, len(uses))
		}
		ids[i] = uint32(v)
		uses[v]++
	}
	if off != len(raw) {
		return nil, fmt.Errorf("disptrace: %d trailing bytes after %d step IDs", len(raw)-off, n)
	}
	return ids, nil
}
