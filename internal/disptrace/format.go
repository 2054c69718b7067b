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
// The on-disk format is:
//
//	magic "VMDT" | version u16 LE | crc32 u32 LE (of everything after)
//	header block  (length-prefixed; versioned metadata + totals)
//	segment index (per segment: codec, stored bytes, records,
//	               raw bytes, VM instructions, step-table bytes)
//	segment payloads
//	segment step tables
//
// Records are varint-encoded with per-segment delta bases for
// addresses, so each segment decodes independently and a replay can
// decode segments on parallel goroutines while applying them in
// order. Each index entry carries a codec byte (see Codec): payloads
// are flate-compressed on disk when that shrinks them, typically 3-6x
// for interpreter dispatch streams. Traces are seekable by VM
// instruction: the writer seals segments at VM instruction
// boundaries, each index entry carries the number of VM instructions
// beginning in its segment, and a compact per-segment step table (see
// Segment.Steps) maps every instruction to its records so a Cursor can
// Seek to an arbitrary instruction without decoding the whole stream.
//
// The format is v3, and it is the only version this package reads:
// files written by older versions (v1 without codecs, v2 without step
// tables) are rejected with an error asking to re-record them. The
// trace cache never serves them anyway, since every cache key hashes
// Version.
package disptrace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the trace format version this package writes, and the
// only one it reads.
const Version = 3

// magic identifies a dispatch trace file.
var magic = [4]byte{'V', 'M', 'D', 'T'}

// DefaultSegmentRecords is the number of records per segment the
// writer targets: small enough for parallel decode granularity and
// bounded per-segment decode memory (a sealed segment expands to at
// most 5x as many logical events on decode, so this also caps the
// batch size the replay pipeline hands each applier), large enough to
// amortize per-segment and per-batch overhead. Tuned against the
// decode/apply overlap benchmarks in bench_test.go: 1<<14 keeps
// appliers fed without multi-megabyte in-flight batches; larger
// segments measured no faster, smaller ones lose compression ratio
// and add channel traffic.
const DefaultSegmentRecords = 1 << 14

// Record tag space. Tags >= tagWorkBase inline small work counts into
// the tag byte itself.
//
// The two step tags fuse the engine's fixed per-VM-instruction call
// shapes into one record each — the overwhelming majority of the
// stream. A fall-through step is Work, Fetch, Work and a dispatching
// step is Work, Fetch, Work, Fetch, Dispatch with the second fetch
// hitting the dispatch branch address; fusing them cuts the record
// count about 5x, which is what makes replay decode cheaper than
// re-running the interpreter. Decoding expands a fused record back
// into its constituent events, so the logical stream (and therefore
// the replayed float cycle ordering) is unchanged.
const (
	tagWorkExt  = 0 // Work(n), n as uvarint (n > maxInlineWork)
	tagFetch    = 1 // Fetch: varint addr delta, uvarint size
	tagDispatch = 2 // Dispatch: varint branch delta, uvarint hint, varint target delta
	// tagStepSeq is Work(w), Fetch(a, s), Work(sw):
	// uvarint w, varint addr delta, uvarint s, uvarint sw.
	tagStepSeq = 3
	// tagStepDisp is Work(w), Fetch(a, s), Work(dw), Fetch(branch, ds),
	// Dispatch(branch, hint, target): uvarint w, varint addr delta,
	// uvarint s, uvarint dw, uvarint ds, varint branch delta,
	// uvarint hint, varint target delta. The fetch-address chain
	// continues at branch (the step's last fetch).
	tagStepDisp = 4
	tagWorkBase = 5 // Work(tag - tagWorkBase) for tag in [5, 255]

	maxInlineWork = 255 - tagWorkBase
)

// Kind classifies a decoded trace record.
type Kind uint8

const (
	// KWork is n straight-line native instructions (A = n).
	KWork Kind = iota
	// KFetch is an instruction fetch (A = addr, B = size).
	KFetch
	// KDispatch is an indirect dispatch (A = branch, B = hint,
	// C = target).
	KDispatch
)

// Record is one decoded trace event. Field meaning depends on Kind;
// see the Kind constants.
type Record struct {
	Kind    Kind
	A, B, C uint64
}

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
	// and run-time generated code bytes.
	VMInstructions uint64
	CodeBytes      uint64
	// Records counts encoded (physical) records — fused step records
	// count once. Dispatches, Fetches and WorkInstrs count logical
	// events: dispatch and fetch events after expansion, and the sum
	// of all work amounts.
	Records    uint64
	Dispatches uint64
	Fetches    uint64
	WorkInstrs uint64
}

// Segment is one independently decodable chunk of the record stream.
type Segment struct {
	// Data is the encoded payload (delta bases reset at the segment
	// start), stored under Codec.
	Data []byte
	// Records is the number of records encoded in the payload.
	Records int
	// Codec is the payload encoding of Data. The zero value CodecRaw
	// matches writer-produced in-memory segments.
	Codec Codec
	// RawBytes is the decoded payload size when Codec != CodecRaw
	// (ignored for raw segments, whose size is len(Data)).
	RawBytes int
	// VMInsts is the number of VM instructions (steps) beginning in
	// this segment.
	VMInsts int
	// Steps is the encoded step table mapping the segment's VM
	// instructions to their records (see encodeStepTable): a prefix
	// record count continuing the previous segment's last step,
	// followed by exceptions for steps that span more or fewer than
	// one record.
	Steps []byte
}

// stepExc is one step-table exception: step idx (segment-local) spans
// recs records instead of the default one.
type stepExc struct {
	idx  int
	recs int
}

// encodeStepTable serializes a segment step table: the prefix record
// count (records at the segment start that continue the previous
// segment's last step, or precede the first VM instruction of the
// stream), then the exception list as (gap, records) pairs over the
// default of one record per step. Interpreter streams fuse almost
// every instruction into a single record, so steady-state tables are
// a few bytes regardless of segment size.
func encodeStepTable(prefix int, exc []stepExc) []byte {
	b := binary.AppendUvarint(nil, uint64(prefix))
	b = binary.AppendUvarint(b, uint64(len(exc)))
	prev := -1
	for _, e := range exc {
		b = binary.AppendUvarint(b, uint64(e.idx-prev-1))
		b = binary.AppendUvarint(b, uint64(e.recs))
		prev = e.idx
	}
	return b
}

// parseStepTable decodes and validates a segment step table against
// the segment's instruction and record counts from the index: every
// exception index must be in range and strictly increasing, and the
// implied record total (prefix + defaults + exceptions) must equal
// the segment's record count. Corrupt tables error, never panic.
func parseStepTable(b []byte, vmInsts, records int) (prefix int, exc []stepExc, err error) {
	r := &byteReader{b: b}
	p := r.uvarint()
	nexc := r.uvarint()
	if r.err != nil {
		return 0, nil, r.err
	}
	if p > uint64(records) {
		return 0, nil, fmt.Errorf("disptrace: step table prefix %d exceeds %d segment records", p, records)
	}
	if nexc > uint64(vmInsts) {
		return 0, nil, fmt.Errorf("disptrace: step table has %d exceptions for %d instructions", nexc, vmInsts)
	}
	// Each exception costs at least two bytes, so a count beyond the
	// table's own size is corrupt; checking before the allocation
	// keeps a crafted index from forcing a huge reservation.
	if nexc > uint64(len(b))/2 {
		return 0, nil, fmt.Errorf("disptrace: step table claims %d exceptions in %d bytes", nexc, len(b))
	}
	exc = make([]stepExc, nexc)
	total := p
	idx := -1
	for i := range exc {
		gap := r.uvarint()
		recs := r.uvarint()
		if r.err != nil {
			return 0, nil, r.err
		}
		if gap > uint64(vmInsts) || recs > uint64(records) {
			return 0, nil, fmt.Errorf("disptrace: step table exception %d out of range (gap %d, records %d)", i, gap, recs)
		}
		idx += 1 + int(gap)
		if idx >= vmInsts {
			return 0, nil, fmt.Errorf("disptrace: step table exception %d names instruction %d of %d", i, idx, vmInsts)
		}
		exc[i] = stepExc{idx: idx, recs: int(recs)}
		total += recs
	}
	if r.off != len(b) {
		return 0, nil, fmt.Errorf("disptrace: %d trailing bytes after step table", len(b)-r.off)
	}
	total += uint64(vmInsts) - uint64(len(exc)) // default steps: one record each
	if total != uint64(records) {
		return 0, nil, fmt.Errorf("disptrace: step table implies %d records, segment has %d", total, records)
	}
	return int(p), exc, nil
}

// RawLen returns the decoded payload size in bytes — what the stored
// Data inflates to (equal to len(Data) for raw segments). vmtrace
// info reports compression ratios with it.
func (s Segment) RawLen() int {
	if s.Codec == CodecRaw {
		return len(s.Data)
	}
	return s.RawBytes
}

// payload returns the raw (decompressed) record bytes.
func (s Segment) payload() ([]byte, error) {
	raw, _, err := s.payloadScratch(nil)
	return raw, err
}

// payloadScratch is payload with a reusable decompression buffer:
// scratch is reused when it has the capacity, and the returned
// scratch (the inflate buffer, possibly grown) can be handed to the
// next call — sequential replay decompresses a whole trace with one
// allocation. Raw segments return their stored Data and pass scratch
// through untouched.
func (s Segment) payloadScratch(scratch []byte) (raw, newScratch []byte, err error) {
	switch s.Codec {
	case CodecRaw:
		return s.Data, scratch, nil
	case CodecFlate:
		raw, err = inflate(s.Data, s.RawBytes, scratch)
		if err != nil {
			return nil, scratch, err
		}
		return raw, raw, nil
	default:
		return nil, scratch, fmt.Errorf("disptrace: unknown segment codec %d", s.Codec)
	}
}

// Trace is a complete dispatch trace: header plus encoded segments.
type Trace struct {
	Header Header
	Segs   []Segment

	// arena, when non-nil, is the trace's compiled form (see
	// compiled.go): the fully decoded op stream replay and cursors
	// serve from instead of decoding Segs. Attached by Compile; the
	// arena is immutable and must describe exactly this trace.
	arena *Arena
}

// maxStringLen bounds length-prefixed strings during decoding so a
// corrupt header cannot force a huge allocation.
const maxStringLen = 1 << 16

// maxSegmentRecords bounds the per-segment record count a reader
// accepts. The writer seals segments at DefaultSegmentRecords (16Ki;
// 64Ki historically), so this leaves 4x headroom for retuning while
// capping decode-time allocations: with compressed payloads the
// records-fit-in-raw-bytes check no longer ties the count to the
// input size (DEFLATE expands up to ~1032x), and an unbounded count
// would let a small crafted trace force a fatal multi-GB reservation
// instead of a decode error.
const maxSegmentRecords = 1 << 18

// maxRecordsPrealloc caps the capacity hint Records derives from the
// header total; genuinely larger streams grow by append instead of
// trusting an attacker-controlled field with one huge up-front
// allocation.
const maxRecordsPrealloc = 1 << 22

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
	if n > maxStringLen || int(n) > len(r.b)-r.off {
		r.fail("disptrace: string length %d out of range at offset %d", n, r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *byteReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("disptrace: byte range %d out of bounds at offset %d", n, r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
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
		h.Records, h.Dispatches, h.Fetches, h.WorkInstrs,
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
		&h.Records, &h.Dispatches, &h.Fetches, &h.WorkInstrs,
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

// Encode serializes the trace to its on-disk byte form, compressing
// raw segment payloads with DefaultCodec (per segment, only when that
// shrinks them).
func (t *Trace) Encode() []byte { return t.EncodeCodec(DefaultCodec) }

// EncodeCodec is Encode with an explicit codec for raw segments.
// Segments already carrying a non-raw codec (a decoded trace being
// re-encoded) are stored as they are.
func (t *Trace) EncodeCodec(c Codec) []byte {
	stored := make([]Segment, len(t.Segs))
	for i, s := range t.Segs {
		if s.Codec != CodecRaw {
			stored[i] = s
			continue
		}
		data, codec := encodePayload(s.Data, c)
		stored[i] = Segment{Data: data, Records: s.Records, Codec: codec, RawBytes: len(s.Data),
			VMInsts: s.VMInsts, Steps: s.Steps}
	}

	hdr := encodeHeader(t.Header)
	body := binary.AppendUvarint(nil, uint64(len(hdr)))
	body = append(body, hdr...)
	body = binary.AppendUvarint(body, uint64(len(stored)))
	for _, s := range stored {
		body = append(body, byte(s.Codec))
		body = binary.AppendUvarint(body, uint64(len(s.Data)))
		body = binary.AppendUvarint(body, uint64(s.Records))
		body = binary.AppendUvarint(body, uint64(s.RawBytes))
		body = binary.AppendUvarint(body, uint64(s.VMInsts))
		body = binary.AppendUvarint(body, uint64(len(s.Steps)))
	}
	for _, s := range stored {
		body = append(body, s.Data...)
	}
	for _, s := range stored {
		body = append(body, s.Steps...)
	}

	out := make([]byte, 0, 4+2+4+len(body))
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
	if len(b) < 10 {
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

// Decode parses an encoded trace, validating the magic, version and
// checksum and bounds-checking every field. Corrupt input yields an
// error, never a panic.
func Decode(b []byte) (*Trace, error) {
	if err := checkPrefix(b); err != nil {
		return nil, err
	}
	body := b[10:]
	if sum := binary.LittleEndian.Uint32(b[6:10]); sum != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("disptrace: checksum mismatch (corrupt trace)")
	}

	r := &byteReader{b: body}
	hdrLen := r.uvarint()
	if r.err == nil && hdrLen > uint64(len(body)) {
		r.fail("disptrace: header length %d exceeds trace size", hdrLen)
	}
	hdrBytes := r.bytes(int(hdrLen))
	if r.err != nil {
		return nil, r.err
	}
	h, err := decodeHeader(hdrBytes)
	if err != nil {
		return nil, err
	}

	segCount := r.uvarint()
	if r.err == nil && segCount > uint64(len(body)) {
		// Each segment costs at least one index byte, so this bounds
		// the index allocation by the input size.
		r.fail("disptrace: segment count %d exceeds trace size", segCount)
	}
	if r.err != nil {
		return nil, r.err
	}
	type segInfo struct {
		codec                                   Codec
		bytes, records, raw, vmInsts, stepBytes uint64
	}
	infos := make([]segInfo, segCount)
	var totalRecords, totalInsts uint64
	for i := range infos {
		infos[i].codec = Codec(r.byte())
		infos[i].bytes = r.uvarint()
		infos[i].records = r.uvarint()
		infos[i].raw = r.uvarint()
		infos[i].vmInsts = r.uvarint()
		infos[i].stepBytes = r.uvarint()
		totalInsts += infos[i].vmInsts
		totalRecords += infos[i].records
	}
	if r.err != nil {
		return nil, r.err
	}
	if totalRecords != h.Records {
		return nil, fmt.Errorf("disptrace: index holds %d records, header says %d", totalRecords, h.Records)
	}
	if totalInsts != h.VMInstructions {
		return nil, fmt.Errorf("disptrace: index holds %d VM instructions, header says %d", totalInsts, h.VMInstructions)
	}

	t := &Trace{Header: h, Segs: make([]Segment, segCount)}
	for i := range t.Segs {
		in := infos[i]
		if !knownCodec(in.codec) {
			return nil, fmt.Errorf("disptrace: segment %d has unknown codec %d", i, in.codec)
		}
		if in.bytes > math.MaxInt32 || in.records > math.MaxInt32 || in.raw > math.MaxInt32 ||
			in.vmInsts > math.MaxInt32 || in.stepBytes > math.MaxInt32 {
			return nil, fmt.Errorf("disptrace: segment %d size out of range", i)
		}
		if in.codec == CodecRaw && in.raw != in.bytes {
			return nil, fmt.Errorf("disptrace: raw segment %d declares %d raw bytes for a %d-byte payload", i, in.raw, in.bytes)
		}
		// Every record costs at least its tag byte, so a record count
		// above the raw payload size is corrupt; checking here also
		// keeps decode-time allocations proportional to the input
		// (inflate additionally bounds raw against the compressed
		// size).
		if in.records > in.raw {
			return nil, fmt.Errorf("disptrace: segment %d claims %d records in %d bytes", i, in.records, in.raw)
		}
		if in.records > maxSegmentRecords {
			return nil, fmt.Errorf("disptrace: segment %d claims %d records (limit %d)", i, in.records, maxSegmentRecords)
		}
		t.Segs[i] = Segment{Data: r.bytes(int(in.bytes)), Records: int(in.records), Codec: in.codec, RawBytes: int(in.raw),
			VMInsts: int(in.vmInsts)}
	}
	for i := range t.Segs {
		steps := r.bytes(int(infos[i].stepBytes))
		if r.err != nil {
			return nil, r.err
		}
		// Validate the table now so corrupt step indexes fail at
		// Decode instead of deep inside a seeking consumer. The
		// exception count is bounded by the table's own bytes, so
		// this stays proportional to the input.
		if _, _, err := parseStepTable(steps, t.Segs[i].VMInsts, t.Segs[i].Records); err != nil {
			return nil, fmt.Errorf("disptrace: segment %d: %w", i, err)
		}
		t.Segs[i].Steps = steps
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("disptrace: %d trailing bytes after segments", len(body)-r.off)
	}
	return t, nil
}

// Meta summarizes a trace file from its header and segment index
// alone: no payload is inflated and no checksum is computed, so
// listing a cache directory stays cheap however large the traces are.
type Meta struct {
	Header Header
	// Segments is the segment count from the index.
	Segments int
}

// DecodeMeta parses a trace's metadata from an encoded prefix. It
// accepts a partial buffer as long as the header and segment index
// are complete; payload bytes past the index are not touched (and the
// checksum, which covers them, is not verified — callers that need
// integrity use Decode).
func DecodeMeta(b []byte) (Meta, error) {
	if err := checkPrefix(b); err != nil {
		return Meta{}, err
	}
	r := &byteReader{b: b[10:]}
	hdrLen := r.uvarint()
	if r.err == nil && hdrLen > uint64(len(r.b)) {
		r.fail("disptrace: header length %d exceeds trace size", hdrLen)
	}
	hdrBytes := r.bytes(int(hdrLen))
	if r.err != nil {
		return Meta{}, r.err
	}
	h, err := decodeHeader(hdrBytes)
	if err != nil {
		return Meta{}, err
	}
	segCount := r.uvarint()
	if r.err == nil && segCount > uint64(len(r.b)) {
		r.fail("disptrace: segment count %d exceeds trace size", segCount)
	}
	if r.err != nil {
		return Meta{}, r.err
	}
	for range segCount {
		r.byte()    // codec
		r.uvarint() // stored bytes
		r.uvarint() // records
		r.uvarint() // raw bytes
		r.uvarint() // vm instructions
		r.uvarint() // step-table bytes
	}
	if r.err != nil {
		return Meta{}, r.err
	}
	return Meta{Header: h, Segments: int(segCount)}, nil
}

// Decode expands the segment into logical records, appending to dst
// (which may be nil): fused step records come back as their
// constituent Work/Fetch/Dispatch events, and compressed payloads are
// inflated first. Delta bases start at zero, matching the writer's
// per-segment reset.
func (s Segment) Decode(dst []Record) ([]Record, error) {
	if s.Records > maxSegmentRecords {
		return nil, fmt.Errorf("disptrace: segment claims %d records (limit %d)", s.Records, maxSegmentRecords)
	}
	raw, err := s.payload()
	if err != nil {
		return nil, err
	}
	r := &byteReader{b: raw}
	var prevFetch, prevBranch, prevTarget uint64
	if cap(dst)-len(dst) < s.Records {
		grown := make([]Record, len(dst), len(dst)+s.Records)
		copy(grown, dst)
		dst = grown
	}
	for range s.Records {
		tag := r.byte()
		switch {
		case tag >= tagWorkBase:
			dst = append(dst, Record{Kind: KWork, A: uint64(tag - tagWorkBase)})
		case tag == tagWorkExt:
			dst = append(dst, Record{Kind: KWork, A: r.uvarint()})
		case tag == tagFetch:
			prevFetch += uint64(r.varint())
			dst = append(dst, Record{Kind: KFetch, A: prevFetch, B: r.uvarint()})
		case tag == tagDispatch:
			prevBranch += uint64(r.varint())
			hint := r.uvarint()
			prevTarget += uint64(r.varint())
			dst = append(dst, Record{Kind: KDispatch, A: prevBranch, B: hint, C: prevTarget})
		case tag == tagStepSeq:
			w := r.uvarint()
			prevFetch += uint64(r.varint())
			size := r.uvarint()
			sw := r.uvarint()
			dst = append(dst,
				Record{Kind: KWork, A: w},
				Record{Kind: KFetch, A: prevFetch, B: size},
				Record{Kind: KWork, A: sw})
		case tag == tagStepDisp:
			w := r.uvarint()
			prevFetch += uint64(r.varint())
			size := r.uvarint()
			dw := r.uvarint()
			ds := r.uvarint()
			prevBranch += uint64(r.varint())
			hint := r.uvarint()
			prevTarget += uint64(r.varint())
			dst = append(dst,
				Record{Kind: KWork, A: w},
				Record{Kind: KFetch, A: prevFetch, B: size},
				Record{Kind: KWork, A: dw},
				Record{Kind: KFetch, A: prevBranch, B: ds},
				Record{Kind: KDispatch, A: prevBranch, B: hint, C: prevTarget})
			prevFetch = prevBranch // the step's last fetch was the branch
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.off != len(raw) {
		return nil, fmt.Errorf("disptrace: %d trailing bytes after %d segment records", len(raw)-r.off, s.Records)
	}
	return dst, nil
}

// Records decodes the full record stream (all segments, in order).
func (t *Trace) Records() ([]Record, error) {
	var out []Record
	if t.Header.Records <= maxRecordsPrealloc {
		out = make([]Record, 0, t.Header.Records)
	}
	for _, s := range t.Segs {
		var err error
		if out, err = s.Decode(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
