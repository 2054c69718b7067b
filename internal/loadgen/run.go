package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/metrics"
	"vmopt/internal/obs"
	"vmopt/internal/runner"
)

// Runner executes one spec against a serving address.
type Runner struct {
	// Addr is the vmserved base URL (http://host:port).
	Addr string
	// Spec is the validated workload description.
	Spec *Spec
	// Client is the HTTP client to use; nil builds one with the
	// spec's timeout.
	Client *http.Client
	// Log receives per-failure detail lines (one per transport error,
	// non-2xx response, divergence or failed sweep cell); nil
	// discards them.
	Log io.Writer
	// KeepResponses records each logical request's normalized response
	// hash into Report.Responses — the byte-identity artifact chaos CI
	// compares between a fault-free and a fault-injected run.
	KeepResponses bool
	// Instances, when set, lists every replica base URL behind a
	// cluster router at Addr: the server-side request counters are
	// scraped from each instance's /metrics and summed, since the
	// router fans traffic across the fleet and its own counters count
	// routing, not serving. Any unreachable instance drops the
	// cross-check (Report.Server nil), as a single unreachable target
	// would.
	Instances []string
}

// load is the mutable state of one run.
type load struct {
	*Runner
	spec   *Spec
	client *http.Client
	corpus *corpus

	// opNames/cum is the mix frozen in sorted-name order so drawing
	// is deterministic (map iteration is not).
	opNames []string
	cum     []float64

	recorders map[string]*opRecorder
	seen      sync.Map // request key -> [32]byte response hash
	logMu     sync.Mutex
}

// Run executes the spec: warm-up, diff-corpus preparation, the
// measurement phase in the spec's arrival mode, and report assembly.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	spec := r.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c, err := buildCorpus(spec)
	if err != nil {
		return nil, err
	}
	client := r.Client
	if client == nil {
		client = &http.Client{Timeout: spec.timeout()}
	}
	ld := &load{
		Runner:    r,
		spec:      spec,
		client:    client,
		corpus:    c,
		recorders: map[string]*opRecorder{},
	}
	for op := range spec.Ops {
		ld.opNames = append(ld.opNames, op)
		ld.recorders[op] = &opRecorder{}
	}
	sort.Strings(ld.opNames)
	total := 0.0
	for _, op := range ld.opNames {
		total += spec.Ops[op]
		ld.cum = append(ld.cum, total)
	}

	// Warm-up: closed-loop, unrecorded. Besides heating the server's
	// cache tiers, this is what records the dispatch traces the diff
	// population pairs up.
	if spec.WarmupRequests > 0 {
		ld.closedLoop(ctx, spec.WarmupRequests, 0, spec.workers(), false)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.prepareDiff(client, r.Addr, spec); err != nil {
		return nil, err
	}

	before := ld.serverView()

	var elapsed time.Duration
	if spec.open() {
		elapsed, err = ld.openLoop(ctx)
		if err != nil {
			return nil, err
		}
	} else {
		elapsed = ld.closedLoop(ctx, spec.MeasureRequests, time.Duration(spec.MeasureDuration), spec.workers(), true)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return ld.report(elapsed, before, ld.serverView()), nil
}

// drawOp picks one operation from the mix.
func (ld *load) drawOp(rng *rand.Rand) string {
	u := rng.Float64()
	for i, c := range ld.cum {
		if u < c {
			return ld.opNames[i]
		}
	}
	return ld.opNames[len(ld.opNames)-1]
}

// next draws the next (op, request) pair, remapping ops whose
// population is empty (diff before prepareDiff has run) onto the
// first populated op so warm-up always does useful work.
func (ld *load) next(rng *rand.Rand) (string, request) {
	op := ld.drawOp(rng)
	if len(ld.corpus.byOp[op]) == 0 {
		for _, alt := range ld.opNames {
			if len(ld.corpus.byOp[alt]) > 0 {
				op = alt
				break
			}
		}
	}
	return op, ld.corpus.pick(op, rng)
}

// closedLoop runs workers that each issue the next request as soon as
// their previous one completes — the classic YCSB thread model, which
// measures service latency but, by construction, slows its own
// arrival rate down whenever the server stalls. It stops after n
// requests (n > 0), after d (d > 0), or at ctx cancellation,
// whichever comes first, and returns the phase's wall clock.
func (ld *load) closedLoop(ctx context.Context, n int, d time.Duration, workers int, record bool) time.Duration {
	var (
		ticket atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	var deadline time.Time
	if d > 0 {
		deadline = start.Add(d)
	}
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(ld.spec.Seed + int64(w)*7919))
			for {
				if ctx.Err() != nil {
					return
				}
				if n > 0 && ticket.Add(1) > int64(n) {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				op, req := ld.next(rng)
				ld.issue(op, req, record, time.Time{})
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop dispatches requests on the spec's arrival schedule: each
// request's intended start is fixed by the schedule alone, and its
// latency is recorded from that intended start — including any time
// it spent waiting for the client-side in-flight cap — so a server
// stall surfaces in the percentiles at full size instead of being
// coordinated away. The dispatcher itself never blocks on a slow
// request; requests beyond MaxInFlight queue in their own goroutines.
func (ld *load) openLoop(ctx context.Context) (time.Duration, error) {
	spec := ld.spec
	sched, err := NewSchedule(spec.Arrival.Schedule, spec.Arrival.RateRPS, spec.Seed)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sem := make(chan struct{}, spec.maxInFlight())
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; spec.MeasureRequests <= 0 || i < spec.MeasureRequests; i++ {
		off := sched.Next()
		if spec.MeasureDuration > 0 && off >= time.Duration(spec.MeasureDuration) {
			break
		}
		intended := start.Add(off)
		if wait := time.Until(intended); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return time.Since(start), ctx.Err()
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return time.Since(start), ctx.Err()
		}
		// Draw in the dispatcher: one rng keeps the sequence
		// deterministic no matter how requests interleave.
		op, req := ld.next(rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{} // queueing here is charged to the request
			defer func() { <-sem }()
			ld.issue(op, req, true, intended)
		}()
	}
	wg.Wait()
	return time.Since(start), nil
}

// sweepLine is the subset of the server's NDJSON sweep schema the
// checker needs: per-cell error lines, resume cursors, and the final
// summary. A sweep whose groups fail still answers 200 — the failures
// ride inside the stream — so the gate has to read the lines, not
// just the status.
type sweepLine struct {
	Error  string `json:"error"`
	Cursor string `json:"cursor"`
	Done   bool   `json:"done"`
	Errors int    `json:"errors"`
}

// attemptResult is one HTTP attempt's outcome. A non-nil err with a
// non-zero status means the body broke mid-read (for a streaming
// sweep, the salvageable case).
type attemptResult struct {
	status  int
	header  http.Header
	trailer http.Header
	body    []byte
	err     error
}

// retryable reports whether the attempt's failure class is worth
// retrying: transport errors, broken bodies, and every 5xx (503
// backpressure included — that is exactly what Retry-After is for).
// 2xx and 4xx are terminal: repeating a malformed request cannot fix
// it.
func (a attemptResult) retryable() bool { return a.err != nil || a.status/100 == 5 }

func (a attemptResult) summary() string {
	if a.err != nil {
		return a.err.Error()
	}
	return fmt.Sprintf("HTTP %d", a.status)
}

// retryAfter reads the server's backoff floor, zero when absent.
func (a attemptResult) retryAfter() time.Duration {
	if a.header == nil {
		return 0
	}
	s, err := strconv.Atoi(a.header.Get("Retry-After"))
	if err != nil || s <= 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}

// send performs one attempt of a request. Retried attempts carry
// X-Retry-Attempt so the server's vmserved_retried_requests_total
// counter sees them; a non-empty resume cursor is injected into sweep
// bodies so the server skips groups the broken stream already
// delivered.
func (ld *load) send(req request, attempt int, resume string) attemptResult {
	body := req.body
	if resume != "" {
		if b, err := injectResume(req.body, resume); err == nil {
			body = b
		}
	}
	method := req.method
	if method == "" {
		method = http.MethodPost
	}
	hr, err := http.NewRequest(method, ld.Addr+req.path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: err}
	}
	if method != http.MethodGet {
		hr.Header.Set("Content-Type", "application/json")
	}
	if attempt > 0 {
		hr.Header.Set("X-Retry-Attempt", strconv.Itoa(attempt))
	}
	resp, err := ld.client.Do(hr)
	if err != nil {
		return attemptResult{err: err}
	}
	b, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	return attemptResult{status: resp.StatusCode, header: resp.Header, trailer: resp.Trailer, body: b, err: rerr}
}

// injectResume adds the resume cursor to a sweep request body.
func injectResume(body []byte, cursor string) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	m["resume"] = cursor
	return json.Marshal(m)
}

// backoffFor computes the pause before retrying one logical request:
// exponential from the spec's base, capped at its max, scaled by a
// deterministic jitter in [0.5, 1) drawn from the request key and
// attempt number (no global rand — a seeded run stays reproducible),
// and floored by the server's Retry-After, itself capped at the max
// so a conservative server cannot stall the run.
func (ld *load) backoffFor(key string, attempt int, retryAfter time.Duration) time.Duration {
	base, maxB := ld.spec.baseBackoff(), ld.spec.maxBackoff()
	d := base
	for i := 0; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	d = time.Duration(float64(d) * (0.5 + float64(h.Sum64()%1024)/2048))
	if retryAfter > maxB {
		retryAfter = maxB
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// salvageSweep extracts the complete lines of a broken sweep stream
// and the last resume cursor they carry. The trailing partial line is
// dropped; cell lines are kept wherever they sit — groups the cursor
// does not cover are re-streamed whole by the resumed request, and
// checkSweep's exact-duplicate normalization absorbs the overlap.
func salvageSweep(body []byte) (lines []string, cursor string) {
	s := string(body)
	i := strings.LastIndexByte(s, '\n')
	if i < 0 {
		return nil, ""
	}
	for _, line := range strings.Split(s[:i], "\n") {
		var l sweepLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			continue
		}
		switch {
		case l.Cursor != "":
			cursor = l.Cursor
		case !l.Done:
			lines = append(lines, line)
		}
	}
	return lines, cursor
}

// issue sends one logical request — retrying per the spec's retry
// policy, resuming broken sweep streams from their last cursor —
// classifies the final attempt's outcome into the op's recorder (when
// record is set), and checks the response against the first response
// seen for the same logical request. Latency covers every attempt and
// backoff; a zero intended time means closed-loop (latency from the
// first actual send), otherwise from the intended start on the
// arrival schedule.
func (ld *load) issue(op string, req request, record bool, intended time.Time) {
	rec := ld.recorders[op]
	if record {
		rec.count.Add(1)
	}
	start := time.Now()

	maxAttempts := ld.spec.maxAttempts()
	var salvaged []string // complete sweep lines rescued from broken streams
	resume := ""
	var ar attemptResult
	for attempt := 0; ; attempt++ {
		ar = ld.send(req, attempt, resume)
		if !ar.retryable() || attempt+1 >= maxAttempts {
			break
		}
		if req.sweep && ar.status == http.StatusOK {
			// The stream broke mid-body: keep its complete cell lines
			// and resume from its last cursor instead of replaying the
			// whole grid.
			lines, cursor := salvageSweep(ar.body)
			salvaged = append(salvaged, lines...)
			if cursor != "" {
				resume = cursor
			}
		}
		if record {
			rec.retries.Add(1)
		}
		d := ld.backoffFor(req.key, attempt, ar.retryAfter())
		ld.logf("%s: attempt %d failed (%s), retrying in %s", req.path, attempt+1, ar.summary(), d)
		time.Sleep(d)
	}
	if record {
		if !intended.IsZero() {
			start = intended
		}
		rec.hist.Observe(time.Since(start))
	}

	// Classification is by the final attempt alone: a request that
	// recovered on retry is a success.
	if ar.err != nil {
		if record {
			rec.errors.Add(1)
		}
		ld.logf("%s: %v", req.path, ar.err)
		return
	}
	if record {
		// Buffered endpoints send Server-Timing as a header; the
		// streaming sweep sends it as a trailer, readable once the body
		// has been consumed.
		st := ar.header.Get("Server-Timing")
		if st == "" {
			st = ar.trailer.Get("Server-Timing")
		}
		if st != "" {
			rec.addStages(obs.ParseServerTiming(st))
		}
	}
	if ar.status == http.StatusServiceUnavailable {
		// Backpressure, not failure: the server is shedding load as
		// designed. Open-loop overload runs exist to measure this.
		if record {
			rec.backpressure.Add(1)
		}
		return
	}
	if ar.status/100 != 2 {
		if record {
			rec.non2xx.Add(1)
		}
		ld.logf("%s: HTTP %d: %s", req.path, ar.status, firstLine(ar.body))
		return
	}
	norm := ar.body
	if req.sweep {
		lines := append(salvaged, strings.Split(strings.TrimRight(string(ar.body), "\n"), "\n")...)
		norm = ld.checkSweep(req, lines, rec, record)
	}
	if req.volatile {
		return
	}
	sum := sha256.Sum256(norm)
	if prev, loaded := ld.seen.LoadOrStore(req.key, sum); loaded && prev.([32]byte) != sum {
		if record {
			rec.diverged.Add(1)
		}
		ld.logf("%s: response diverged from earlier identical request (%s)", req.path, req.key)
	}
}

// checkSweep scans a sweep's (possibly stitched-across-resumes) lines
// for cell errors and returns the order-normalized form the
// divergence check hashes: the sorted, deduplicated cell and error
// lines. Cursor tokens and the summary are excluded — cursors encode
// completion order and a resumed stream's summary legitimately
// reports skipped groups — while the cell multiset must be identical
// however the stream was delivered. Exact-duplicate lines collapse
// because a resumed request re-streams whole groups the lost stream
// had partially delivered; cells are deterministic, so byte-equal
// duplicates are the same cell.
func (ld *load) checkSweep(req request, lines []string, rec *opRecorder, record bool) []byte {
	cellErr := func(n uint64) {
		if record {
			rec.cellErrors.Add(n)
		}
	}
	var norm []string
	sawDone := false
	for _, line := range lines {
		var l sweepLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			cellErr(1)
			ld.logf("%s: unparseable NDJSON line %q", req.path, line)
			continue
		}
		switch {
		case l.Done:
			sawDone = true
		case l.Cursor != "":
		case l.Error != "":
			cellErr(1)
			ld.logf("%s: cell error: %s", req.path, l.Error)
			norm = append(norm, line)
		default:
			norm = append(norm, line)
		}
	}
	if !sawDone {
		cellErr(1)
		ld.logf("%s: sweep response missing done line (%s)", req.path, req.key)
	}
	sort.Strings(norm)
	return []byte(strings.Join(slices.Compact(norm), "\n"))
}

func (ld *load) logf(format string, args ...any) {
	if ld.Log == nil {
		return
	}
	ld.logMu.Lock()
	defer ld.logMu.Unlock()
	fmt.Fprintf(ld.Log, "loadgen: "+format+"\n", args...)
}

// serverView reads the server's request counters from its /metrics,
// best-effort: a target without /metrics, or without a
// vmserved_requests_total series (a router, a stub), produces a report
// without the server cross-check. With Instances set, every replica's
// view is summed — all must answer, or the cross-check is dropped (a
// partial sum would always disagree with the client-side counts).
func (ld *load) serverView() *ServerDelta {
	if len(ld.Instances) == 0 {
		return ld.serverViewAt(ld.Addr)
	}
	var sum ServerDelta
	for _, addr := range ld.Instances {
		d := ld.serverViewAt(addr)
		if d == nil {
			return nil
		}
		sum.Run += d.Run
		sum.Sweep += d.Sweep
		sum.Diff += d.Diff
		sum.Traces += d.Traces
		sum.Rejected += d.Rejected
		sum.Errors += d.Errors
	}
	return &sum
}

func (ld *load) serverViewAt(addr string) *ServerDelta {
	series, err := metrics.ScrapeMetrics(ld.client, addr)
	if err != nil {
		return nil
	}
	// The router's /metrics has no request counter of an instance: it
	// measured nothing, so it gives no delta rather than a zero one.
	if _, ok := series[`vmserved_requests_total{endpoint="run"}`]; !ok {
		return nil
	}
	ep := func(name string) uint64 {
		return uint64(series[fmt.Sprintf(`vmserved_requests_total{endpoint="%s"}`, name)])
	}
	return &ServerDelta{
		Run: ep("run"), Sweep: ep("sweep"),
		Diff: ep("diff"), Traces: ep("traces"),
		Rejected: uint64(series["vmserved_rejected_total"]),
		Errors:   uint64(series["vmserved_errors_total"]),
	}
}

// delta subtracts a before snapshot from an after snapshot.
func delta(before, after *ServerDelta) *ServerDelta {
	if before == nil || after == nil {
		return nil
	}
	return &ServerDelta{
		Run:      after.Run - before.Run,
		Sweep:    after.Sweep - before.Sweep,
		Diff:     after.Diff - before.Diff,
		Traces:   after.Traces - before.Traces,
		Rejected: after.Rejected - before.Rejected,
		Errors:   after.Errors - before.Errors,
	}
}

// report assembles the final document.
func (ld *load) report(elapsed time.Duration, before, after *ServerDelta) *Report {
	r := &Report{
		Schema:   SchemaVersion,
		Spec:     *ld.spec,
		Host:     runner.CurrentHost(),
		ElapsedS: elapsed.Seconds(),
		Ops:      map[string]OpStats{},
	}
	total := &opRecorder{}
	for _, op := range ld.opNames {
		rec := ld.recorders[op]
		r.Ops[op] = rec.stats()
		total.merge(rec)
	}
	r.Total = total.stats()
	if elapsed > 0 {
		r.ThroughputRPS = float64(r.Total.Count) / elapsed.Seconds()
	}
	r.Server = delta(before, after)
	if ld.KeepResponses {
		r.Responses = map[string]string{}
		ld.seen.Range(func(k, v any) bool {
			sum := v.([32]byte)
			r.Responses[k.(string)] = hex.EncodeToString(sum[:])
			return true
		})
	}
	return r
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
