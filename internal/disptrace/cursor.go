package disptrace

import (
	"encoding/binary"
	"sort"

	"vmopt/internal/cpu"
)

// Step is one VM instruction's slice of the replay stream: the
// instruction's global index and every simulator event it produced,
// in stream order. Ops aliases cursor-owned buffers and is valid only
// until the next Next, NextBatch or Seek call — summarize or copy
// before advancing.
type Step struct {
	// Index is the VM-instruction index of the step, counted from the
	// start of the trace.
	Index uint64
	// Ops is the instruction's event slice (work, fetches, at most
	// one dispatch for engine-recorded streams).
	Ops []cpu.Op
}

// Work sums the step's straight-line native instruction count.
func (s Step) Work() uint64 {
	var n uint64
	for _, op := range s.Ops {
		if op.Kind == cpu.OpWork {
			n += op.A
		}
	}
	return n
}

// Fetch returns the step's first instruction-fetch address — the code
// address of the VM instruction's implementation — and whether the
// step fetched at all.
func (s Step) Fetch() (addr uint64, ok bool) {
	for _, op := range s.Ops {
		if op.Kind == cpu.OpFetch {
			return op.A, true
		}
	}
	return 0, false
}

// Dispatch returns the step's dispatch branch and target addresses,
// and whether the step dispatched (fall-through steps inside a basic
// block do not).
func (s Step) Dispatch() (branch, target uint64, ok bool) {
	for _, op := range s.Ops {
		if op.Kind == cpu.OpDispatch {
			return op.A, op.C, true
		}
	}
	return 0, 0, false
}

// Cursor iterates a trace's replay stream indexed by VM instruction.
// It is the one owner of segment decode: step consumers (Next, Seek —
// the diff tooling) and bulk consumers (NextBatch, the replay
// schedules) both drive it.
//
// Seek jumps straight to the segment holding the requested
// instruction using the per-segment instruction counts in the index,
// and the segment's step table maps the instruction to its records.
//
// A Cursor is not safe for concurrent use; independent goroutines
// each take their own (segments decode independently).
type Cursor struct {
	t *Trace
	// cum[i] is the global index of the first instruction beginning
	// in segment i (len(Segs)+1 entries); built lazily by index() —
	// bulk-only consumers (the pipelined decode workers) never need
	// it.
	cum []uint64

	// Position: seg is the segment the cursor is in (len(Segs) at the
	// end), recOff the record offset within it, stepI the next step's
	// segment-local index, inst its global index. loaded marks the
	// decode state below as valid for seg.
	seg    int
	loaded bool
	recOff int
	stepI  int
	inst   uint64

	// Decoded state of the loaded segment.
	ops      []cpu.Op
	ends     []int // cumulative op count after each record
	prefix   int   // records continuing the previous segment's step
	stepRecs []int32

	stitch  []cpu.Op
	scratch []byte
	err     error

	// comp, when non-nil, is the trace's compiled arena: Next, Seek
	// and NextBatch serve op ranges straight from it (no decode, no
	// stitching — a step spanning segments is contiguous in the flat
	// layout). pos is the compiled position as a global op offset;
	// seg and inst keep their decode-path meanings.
	comp *Arena
	pos  int
}

// NewCursor positions a cursor at the start of the trace. On a
// compiled trace the cursor serves from the arena: step and batch
// slices reference the immutable arena (valid indefinitely, though
// callers should still treat them as until-next-advance per the Step
// contract), and iteration performs no decode work at all.
func NewCursor(t *Trace) *Cursor {
	return &Cursor{t: t, comp: t.arena}
}

// index returns the cumulative-instruction index, building it on
// first use.
func (c *Cursor) index() []uint64 {
	if c.cum == nil {
		c.cum = make([]uint64, len(c.t.Segs)+1)
		for i, s := range c.t.Segs {
			c.cum[i+1] = c.cum[i] + uint64(s.VMInsts)
		}
	}
	return c.cum
}

// Err returns the first decode error the cursor hit; Next and
// NextBatch return false after an error.
func (c *Cursor) Err() error { return c.err }

// opOff converts a record offset of the loaded segment into an offset
// into its decoded ops.
func (c *Cursor) opOff(rec int) int {
	if rec <= 0 {
		return 0
	}
	if rec > len(c.ends) {
		rec = len(c.ends)
	}
	return c.ends[rec-1]
}

// load decodes segment i and its step table.
func (c *Cursor) load(i int) error {
	s := c.t.Segs[i]
	c.ends = c.ends[:0]
	var err error
	c.ops, c.scratch, err = s.decodeOps(c.ops[:0], c.scratch, &c.ends)
	if err != nil {
		return err
	}
	prefix, exc, err := parseStepTable(s.Steps, s.VMInsts, s.Records)
	if err != nil {
		return err
	}
	c.prefix = prefix
	c.stepRecs = c.stepRecs[:0]
	for range s.VMInsts {
		c.stepRecs = append(c.stepRecs, 1)
	}
	for _, e := range exc {
		c.stepRecs[e.idx] = int32(e.recs)
	}
	c.seg = i
	c.loaded = true
	return nil
}

// spills reports whether segment j's last step continues into segment
// j+1: the next segment's step table starts with a nonzero prefix,
// read without decoding its payload.
func (c *Cursor) spills(j int) bool {
	if j+1 >= len(c.t.Segs) {
		return false
	}
	prefix, n := binary.Uvarint(c.t.Segs[j+1].Steps)
	return n > 0 && prefix > 0
}

// compSeg advances seg so it names the segment a forward-moving
// compiled cursor at op offset pos is in: the first segment whose end
// reaches pos. At an exact boundary the cursor stays in the segment
// that just ended (its NextBatch delivers the empty remainder and
// advances), mirroring the decode path's deferred segment advance.
func (c *Cursor) compSeg() {
	for c.seg < len(c.comp.segEnds) && c.comp.segEnds[c.seg] < c.pos {
		c.seg++
	}
}

// Next returns the next step and advances. It returns false at the
// end of the trace or on a decode error (see Err).
func (c *Cursor) Next() (Step, bool) {
	if c.err != nil {
		return Step{}, false
	}
	if a := c.comp; a != nil {
		if c.inst >= uint64(len(a.instEnds)) {
			return Step{}, false
		}
		lo, hi := a.instStart(int(c.inst)), a.instEnds[c.inst]
		st := Step{Index: c.inst, Ops: a.ops[lo:hi]}
		c.inst++
		c.pos = hi
		c.compSeg()
		return st, true
	}
	for {
		if !c.loaded {
			if c.seg >= len(c.t.Segs) {
				return Step{}, false
			}
			if err := c.load(c.seg); err != nil {
				c.err = err
				return Step{}, false
			}
			c.stepI = 0
			// Records before the first step — the stream before the
			// first VM instruction — belong to no step and are
			// skipped (NextBatch still delivers them).
			if c.recOff < c.prefix {
				c.recOff = c.prefix
			}
		}
		if c.stepI < len(c.stepRecs) {
			break
		}
		c.seg++
		c.loaded = false
		c.recOff = 0
	}

	n := int(c.stepRecs[c.stepI])
	lo, hi := c.opOff(c.recOff), c.opOff(c.recOff+n)
	idx := c.inst
	if c.stepI < len(c.stepRecs)-1 || !c.spills(c.seg) {
		c.stepI++
		c.recOff += n
		c.inst++
		return Step{Index: idx, Ops: c.ops[lo:hi]}, true
	}

	// The segment's last step spills into following segments: stitch
	// its pieces (the next segments' prefixes) into one op slice.
	c.stitch = append(c.stitch[:0], c.ops[lo:hi]...)
	for j := c.seg + 1; ; j++ {
		if j >= len(c.t.Segs) {
			c.seg, c.loaded, c.recOff = j, false, 0
			break
		}
		if err := c.load(j); err != nil {
			c.err = err
			return Step{}, false
		}
		c.stitch = append(c.stitch, c.ops[:c.opOff(c.prefix)]...)
		c.stepI = 0
		c.recOff = c.prefix
		// A segment holding no step of its own is swallowed whole by
		// the open step, which may run on into the next.
		if len(c.stepRecs) > 0 || !c.spills(j) {
			break
		}
	}
	c.inst++
	return Step{Index: idx, Ops: c.stitch}, true
}

// Seek positions the cursor so the next Next returns the step with
// the given global VM-instruction index; seeking at or past the end
// makes Next return false. It decodes only the target segment.
func (c *Cursor) Seek(inst uint64) error {
	if c.err != nil {
		return c.err
	}
	if a := c.comp; a != nil {
		if inst >= uint64(len(a.instEnds)) {
			c.seg, c.pos, c.inst = len(a.segEnds), len(a.ops), inst
			return nil
		}
		cum := c.index()
		// Position in the segment the instruction *begins* in (not
		// merely the one containing its start offset): a step starting
		// exactly at a seal belongs to the new segment, and NextBatch
		// after Seek must deliver from there — the decode path's
		// behavior.
		c.seg = sort.Search(len(c.t.Segs), func(s int) bool { return cum[s+1] > inst })
		c.pos = a.instStart(int(inst))
		c.inst = inst
		return nil
	}
	cum := c.index()
	if inst >= cum[len(cum)-1] {
		c.seg, c.loaded, c.recOff, c.inst = len(c.t.Segs), false, 0, inst
		return nil
	}
	s := sort.Search(len(c.t.Segs), func(s int) bool { return cum[s+1] > inst })
	if c.seg != s || !c.loaded {
		if err := c.load(s); err != nil {
			c.err = err
			return err
		}
	}
	local := int(inst - cum[s])
	rec := c.prefix
	for k := range local {
		rec += int(c.stepRecs[k])
	}
	c.stepI, c.recOff, c.inst = local, rec, inst
	return nil
}

// NextBatch appends every op from the cursor's position to the end of
// its current segment onto dst and advances to the next segment,
// returning false at the end of the trace or on a decode error. This
// is the bulk interface the replay schedules drive: batches preserve
// the exact op sequence (prefix records included), so applying every
// batch in order reproduces a full decode. Step iteration afterwards
// resumes at the next segment's first step.
func (c *Cursor) NextBatch(dst []cpu.Op) ([]cpu.Op, bool) {
	if c.err != nil || c.seg >= len(c.t.Segs) {
		return dst, false
	}
	if a := c.comp; a != nil {
		dst = append(dst, a.ops[c.pos:a.segEnds[c.seg]]...)
		c.seg++
		c.pos = a.segEnds[c.seg-1]
		c.inst = c.index()[c.seg]
		return dst, true
	}
	if c.loaded {
		dst = append(dst, c.ops[c.opOff(c.recOff):]...)
	} else {
		var err error
		dst, c.scratch, err = c.t.Segs[c.seg].decodeOps(dst, c.scratch, nil)
		if err != nil {
			c.err = err
			return dst, false
		}
	}
	c.seg++
	c.loaded, c.recOff, c.stepI = false, 0, 0
	c.inst = c.index()[c.seg]
	return dst, true
}

// batchSeg decodes segment i into dst through the cursor's scratch
// buffers without moving the cursor — the out-of-order entry the
// pipelined replay's decode workers drive, one cursor per worker.
func (c *Cursor) batchSeg(i int, dst []cpu.Op) ([]cpu.Op, error) {
	var err error
	dst, c.scratch, err = c.t.Segs[i].decodeOps(dst, c.scratch, nil)
	return dst, err
}
