package disptrace

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
)

// Replay drives sim over the trace: every recorded event is applied
// with the same accounting as the cpu.Sim entry points the engine
// used while recording, in the same order, so the resulting counters
// — the float cycle counters included — are byte-identical to the
// direct simulation the trace was recorded from (on any machine
// model, since the stream is machine-independent; see cpu.Sink).
//
// jobs > 1 decodes (and decompresses) segments on that many
// goroutines while the decoded batches are applied strictly in order;
// jobs == 1 replays fully sequentially on the calling goroutine, and
// jobs <= 0 picks automatically (sequential on a single-core box,
// pipelined decode otherwise).
//
// Replay appends to sim's existing counters like a direct run would;
// use a fresh sim for a fresh result. sim.Sink is ignored during
// replay (replaying must not re-record).
func Replay(t *Trace, sim *cpu.Sim, jobs int) error {
	return replayEach(context.Background(), t, []*cpu.Sim{sim}, jobs)
}

// ReplayCtx is Replay under a request context: when ctx carries an
// obs trace, the replay's cursor-decode and sim-apply time is
// attributed to the trace's "decode" and "apply" stages. Counters are
// byte-identical to Replay; without a trace on the context the replay
// takes exactly Replay's path.
func ReplayCtx(ctx context.Context, t *Trace, sim *cpu.Sim, jobs int) error {
	return replayEach(ctx, t, []*cpu.Sim{sim}, jobs)
}

// ReplayEach replays the trace into several simulators at once with a
// single decode pass: each segment is decoded (and decompressed) into
// one immutable batch of cpu.Op events, and the batch is broadcast to
// one applier goroutine per simulator, so the N machines of a grid
// group apply in parallel while later segments decode. This is how a
// grid that varies only the machine amortizes the decode — one trace
// read serves N machines — and how wide machine grids use the cores
// the sequential predictor/I-cache state machines would otherwise
// leave idle. Each sim sees the exact event sequence a solo Replay
// would deliver, so the per-sim counters stay byte-identical to
// direct simulation.
func ReplayEach(t *Trace, sims []*cpu.Sim) error {
	return replayEach(context.Background(), t, sims, defaultDecodeJobs())
}

// ReplayEachCtx is ReplayEach under a request context, attributing
// the replay to the obs trace riding ctx (see ReplayCtx). The
// pipelined schedule overlaps decode and apply on separate
// goroutines, so it reports the combined wall time as a single
// "apply" stage rather than double-counting the window.
func ReplayEachCtx(ctx context.Context, t *Trace, sims []*cpu.Sim) error {
	return replayEach(ctx, t, sims, defaultDecodeJobs())
}

// defaultDecodeJobs sizes the decode side of the replay pipeline.
// Decoding is much cheaper than applying, so a few goroutines keep
// any number of appliers fed; more would only grow the in-flight
// batch window.
func defaultDecodeJobs() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// applyQueueDepth is the per-applier channel buffer: enough to ride
// out scheduling jitter between appliers without holding many decoded
// batches alive.
const applyQueueDepth = 2

// opBatch is one decoded segment's event batch plus the number of
// appliers that still have to release it. Batches are refcounted so
// the replay pipeline can recycle the backing []cpu.Op the moment the
// last applier finishes with it, instead of allocating one batch per
// segment and leaving the reclaim to GC — for wide machine grids the
// batches are the dominant replay allocation.
type opBatch struct {
	ops  []cpu.Op
	refs atomic.Int32
}

// batchPool is a fixed-capacity recycler for opBatches. get blocks
// while every batch is in flight, which doubles as the pipeline's
// backpressure: decoders stall when the appliers fall behind, bounding
// decoded memory to the pool size — the role the in-flight semaphore
// used to play.
type batchPool struct {
	free chan *opBatch
}

func newBatchPool(size int) *batchPool {
	p := &batchPool{free: make(chan *opBatch, size)}
	for range size {
		p.free <- &opBatch{}
	}
	return p
}

func (p *batchPool) get() *opBatch { return <-p.free }

func (p *batchPool) put(b *opBatch) { p.free <- b }

// release drops one reference and recycles the batch when it was the
// last.
func (b *opBatch) release(p *batchPool) {
	if b.refs.Add(-1) == 0 {
		p.put(b)
	}
}

// replayEach is the shared replay path: detach sinks, credit the
// stream totals, and run the decode/apply schedule.
func replayEach(ctx context.Context, t *Trace, sims []*cpu.Sim, decodeJobs int) error {
	if len(sims) == 0 {
		return nil
	}
	if decodeJobs <= 0 {
		decodeJobs = defaultDecodeJobs()
	}
	if a := t.arena; a != nil {
		// Compiled fast path: the trace's arena already holds the
		// fully decoded stream, so replay is pure apply — no inflate,
		// no varint expansion, no batch pool, and no allocation at
		// all for a single sim (Apply never consults the Sink, and
		// the code-bytes credit below is the same accounting
		// AddCodeBytes performs, minus the sink it must not drive).
		// The op sequence is identical to a decode-path replay — the
		// arena is built by the same decoder — so counters stay
		// byte-identical, float cycle order included.
		start := time.Now()
		for _, sim := range sims {
			sim.C.CodeBytes += t.Header.CodeBytes
		}
		a.replay(sims)
		for _, sim := range sims {
			sim.C.VMInstructions += t.Header.VMInstructions
		}
		if obs.FromContext(ctx) != nil {
			obs.Observe(ctx, "compiled", time.Since(start))
		}
		return nil
	}
	saved := make([]cpu.Sink, len(sims))
	for i, sim := range sims {
		saved[i], sim.Sink = sim.Sink, nil
		// The engine credits dynamic code bytes before stepping;
		// neither ordering affects cycles (integer-only), so totals
		// suffice.
		sim.AddCodeBytes(t.Header.CodeBytes)
	}
	defer func() {
		for i, sim := range sims {
			sim.Sink = saved[i]
		}
	}()

	traced := obs.FromContext(ctx) != nil
	var err error
	if len(sims) == 1 && (decodeJobs <= 1 || len(t.Segs) <= 1) {
		if traced {
			err = replaySequentialTraced(ctx, t, sims[0])
		} else {
			err = replaySequential(t, sims[0])
		}
	} else {
		start := time.Now()
		err = replayPipelined(t, sims, decodeJobs)
		if traced {
			// Decode workers run concurrently with the appliers, so the
			// whole pipeline's wall time is one "apply" stage.
			obs.Observe(ctx, "apply", time.Since(start))
		}
	}
	if err != nil {
		return err
	}
	for _, sim := range sims {
		sim.C.VMInstructions += t.Header.VMInstructions
	}
	return nil
}

// replaySequential drives one cursor over the trace and applies its
// batches on the calling goroutine; the cursor reuses one op buffer
// and one inflate scratch buffer across segments.
func replaySequential(t *Trace, sim *cpu.Sim) error {
	c := NewCursor(t)
	var ops []cpu.Op
	for {
		batch, ok := c.NextBatch(ops[:0])
		if !ok {
			return c.Err()
		}
		sim.Apply(batch)
		ops = batch
	}
}

// replaySequentialTraced is replaySequential with per-phase
// accounting: segment decode accumulates into the trace's "decode"
// stage and event application into "apply", at two clock reads per
// segment batch (segments are coarse, so the overhead is noise next
// to the work being measured).
func replaySequentialTraced(ctx context.Context, t *Trace, sim *cpu.Sim) (err error) {
	c := NewCursor(t)
	var ops []cpu.Op
	var decode, apply time.Duration
	defer func() {
		obs.Observe(ctx, "decode", decode)
		obs.Observe(ctx, "apply", apply)
	}()
	for {
		t0 := time.Now()
		batch, ok := c.NextBatch(ops[:0])
		t1 := time.Now()
		decode += t1.Sub(t0)
		if !ok {
			return c.Err()
		}
		sim.Apply(batch)
		apply += time.Since(t1)
		ops = batch
	}
}

// replayPipelined is the sharded schedule: a fixed crew of decode
// workers expands segments out of order into pooled batches, a
// coordinator forwards each decoded batch in stream order to every
// simulator's applier goroutine, and the appliers run independently —
// the only cross-sim synchronization is the batch hand-off. Batches
// are read-only between decode and release, so sharing one batch
// across appliers is race-free; the last applier to release a batch
// returns it to the pool for the next segment, so a replay allocates
// a pool's worth of batches however many segments stream through.
func replayPipelined(t *Trace, sims []*cpu.Sim, decodeJobs int) error {
	if decodeJobs < 1 {
		decodeJobs = 1
	}
	type decoded struct {
		b   *opBatch
		err error
	}
	// Buffered result slot per segment so decode workers never block
	// on the coordinator; the semaphore bounds segments admitted to
	// decode (decoded-but-unconsumed parking), released as the
	// coordinator consumes each slot in order. The pool must exceed
	// that bound: the admitted segments hold at most decodeJobs
	// batches between them, the applier feeds hold a further bounded,
	// always-draining set, so the worker decoding the oldest admitted
	// segment can never starve in get — without the semaphore, workers
	// could park every pooled batch in future segments' slots and
	// deadlock against the in-order coordinator.
	slots := make([]chan decoded, len(t.Segs))
	for i := range slots {
		slots[i] = make(chan decoded, 1)
	}
	pool := newBatchPool(decodeJobs + applyQueueDepth + 1)
	sem := make(chan struct{}, decodeJobs)
	segs := make(chan int)
	go func() {
		for i := range t.Segs {
			sem <- struct{}{}
			segs <- i
		}
		close(segs)
	}()
	for range decodeJobs {
		go func() {
			// Each worker drives its own cursor, which threads one
			// inflate scratch buffer through the segments it decodes.
			cur := NewCursor(t)
			for i := range segs {
				b := pool.get()
				var err error
				b.ops, err = cur.batchSeg(i, b.ops[:0])
				slots[i] <- decoded{b, err}
			}
		}()
	}

	feeds := make([]chan *opBatch, len(sims))
	var wg sync.WaitGroup
	for k, sim := range sims {
		feeds[k] = make(chan *opBatch, applyQueueDepth)
		wg.Add(1)
		go func(sim *cpu.Sim, ch <-chan *opBatch) {
			defer wg.Done()
			for b := range ch {
				sim.Apply(b.ops)
				b.release(pool)
			}
		}(sim, feeds[k])
	}

	var firstErr error
	for i := range t.Segs {
		d := <-slots[i]
		<-sem
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		if firstErr == nil {
			d.b.refs.Store(int32(len(sims)))
			for _, ch := range feeds {
				ch <- d.b
			}
		} else {
			// Keep draining — and keep recycling — so every decode
			// worker finishes even after an error instead of blocking
			// forever on an exhausted pool.
			pool.put(d.b)
		}
	}
	for _, ch := range feeds {
		close(ch)
	}
	wg.Wait()
	return firstErr
}

// DecodeOps expands the segment into a batch of cpu.Op events,
// appending to dst (which may be nil): fused step records come back
// as their constituent Work/Fetch/Dispatch events and compressed
// payloads are inflated first. A batch stores the already-resolved
// addresses (delta decoding happens here, once), so applying it is a
// tight loop over a slice — the form cpu.Sim.Apply consumes.
func (s Segment) DecodeOps(dst []cpu.Op) ([]cpu.Op, error) {
	ops, _, err := s.decodeOps(dst, nil, nil)
	return ops, err
}

// decodeOps is DecodeOps with a reusable inflate scratch buffer (see
// payloadScratch) threaded through by the cursor, and an optional
// record index: when ends is non-nil it receives the cumulative op
// count after each physical record, which is how the cursor maps step
// tables (record-granular) onto the decoded op stream.
func (s Segment) decodeOps(dst []cpu.Op, scratch []byte, ends *[]int) ([]cpu.Op, []byte, error) {
	if s.Records > maxSegmentRecords {
		return nil, scratch, fmt.Errorf("disptrace: segment claims %d records (limit %d)", s.Records, maxSegmentRecords)
	}
	b, scratch, err := s.payloadScratch(scratch)
	if err != nil {
		return nil, scratch, err
	}
	// A record expands to at most 5 ops (tagStepDisp); reserving the
	// bound up front keeps the hot append realloc-free.
	if need := 5 * s.Records; cap(dst)-len(dst) < need {
		grown := make([]cpu.Op, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	var prevFetch, prevBranch, prevTarget uint64
	i := 0
	// uv/sv are inlined-fast-path varint reads; they set ok=false on
	// malformed input and leave the error to the single check below.
	ok := true
	uv := func() uint64 {
		if i < len(b) && b[i] < 0x80 {
			v := uint64(b[i])
			i++
			return v
		}
		v, k := binary.Uvarint(b[i:])
		if k <= 0 {
			ok = false
			return 0
		}
		i += k
		return v
	}
	sv := func() int64 {
		if i < len(b) && b[i] < 0x80 {
			ux := uint64(b[i])
			i++
			return int64(ux>>1) ^ -int64(ux&1) // zigzag
		}
		v, k := binary.Varint(b[i:])
		if k <= 0 {
			ok = false
			return 0
		}
		i += k
		return v
	}
	for n := 0; n < s.Records; n++ {
		if i >= len(b) {
			return nil, scratch, fmt.Errorf("disptrace: truncated segment at record %d", n)
		}
		tag := b[i]
		i++
		switch {
		case tag >= tagWorkBase:
			dst = append(dst, cpu.Op{Kind: cpu.OpWork, A: uint64(tag - tagWorkBase)})
		case tag == tagWorkExt:
			dst = append(dst, cpu.Op{Kind: cpu.OpWork, A: uv()})
		case tag == tagFetch:
			prevFetch += uint64(sv())
			dst = append(dst, cpu.Op{Kind: cpu.OpFetch, A: prevFetch, B: uv()})
		case tag == tagDispatch:
			prevBranch += uint64(sv())
			hint := uv()
			prevTarget += uint64(sv())
			dst = append(dst, cpu.Op{Kind: cpu.OpDispatch, A: prevBranch, B: hint, C: prevTarget})
		case tag == tagStepSeq:
			w := uv()
			prevFetch += uint64(sv())
			size := uv()
			sw := uv()
			dst = append(dst,
				cpu.Op{Kind: cpu.OpWork, A: w},
				cpu.Op{Kind: cpu.OpFetch, A: prevFetch, B: size},
				cpu.Op{Kind: cpu.OpWork, A: sw})
		default: // tagStepDisp
			w := uv()
			prevFetch += uint64(sv())
			size := uv()
			dw := uv()
			ds := uv()
			prevBranch += uint64(sv())
			hint := uv()
			prevTarget += uint64(sv())
			dst = append(dst,
				cpu.Op{Kind: cpu.OpWork, A: w},
				cpu.Op{Kind: cpu.OpFetch, A: prevFetch, B: size},
				cpu.Op{Kind: cpu.OpWork, A: dw},
				cpu.Op{Kind: cpu.OpFetch, A: prevBranch, B: ds},
				cpu.Op{Kind: cpu.OpDispatch, A: prevBranch, B: hint, C: prevTarget})
			prevFetch = prevBranch // the step's last fetch was the branch
		}
		if !ok {
			return nil, scratch, fmt.Errorf("disptrace: malformed record %d", n)
		}
		if ends != nil {
			*ends = append(*ends, len(dst))
		}
	}
	if i != len(b) {
		return nil, scratch, fmt.Errorf("disptrace: %d trailing bytes after %d segment records", len(b)-i, s.Records)
	}
	return dst, scratch, nil
}

// ReplayMachine replays the trace on a fresh simulator for machine m
// and returns the counters.
func ReplayMachine(t *Trace, m cpu.Machine, jobs int) (metrics.Counters, error) {
	sim := cpu.NewSim(m)
	if err := Replay(t, sim, jobs); err != nil {
		return metrics.Counters{}, err
	}
	return sim.C, nil
}

// Verify checks the decoded stream against the header totals; a trace
// that passes Decode's checksum should also pass this, but Verify
// catches writer bugs and hand-edited traces.
func (t *Trace) Verify() error {
	var records, dispatches, fetches, work uint64
	var recs []Record
	for _, s := range t.Segs {
		var err error
		if recs, err = s.Decode(recs[:0]); err != nil {
			return err
		}
		records += uint64(s.Records) // physical records; fused steps expand on decode
		for _, r := range recs {
			switch r.Kind {
			case KWork:
				work += r.A
			case KFetch:
				fetches++
			case KDispatch:
				dispatches++
			}
		}
	}
	h := t.Header
	if records != h.Records || dispatches != h.Dispatches || fetches != h.Fetches || work != h.WorkInstrs {
		return fmt.Errorf("disptrace: stream totals (%d records, %d dispatches, %d fetches, %d work) disagree with header (%d, %d, %d, %d)",
			records, dispatches, fetches, work, h.Records, h.Dispatches, h.Fetches, h.WorkInstrs)
	}
	return nil
}

// HashISA fingerprints a VM instruction set: the name, opcode count
// and every opcode's metadata. Trace keys include it so a trace
// recorded under one ISA revision is never replayed against another
// (the work/byte cost tables feed directly into the stream).
func HashISA(isa core.ISA) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", isa.Name(), isa.NumOps())
	for op := 0; op < isa.NumOps(); op++ {
		m := isa.Meta(uint32(op))
		fmt.Fprintf(h, "|%s,%v,%d,%d,%v,%v,%d,%d,%v,%v,%v,%v,%v",
			m.Name, m.HasArg, m.Work, m.Bytes, m.Relocatable,
			m.Quickable, m.QuickWork, m.QuickBytesMax,
			m.Branch, m.Call, m.Return, m.Indirect, m.Stop)
	}
	return h.Sum64()
}
