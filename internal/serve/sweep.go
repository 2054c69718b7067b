package serve

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"vmopt/internal/runner"
)

// Sweep is a validated /v1/sweep request: its execution groups, the
// grid fingerprint its cursors bind to, and the groups a resume cursor
// already covers. It is the one sweep protocol of both tiers: an
// instance streams it by computing each group, the cluster router by
// forwarding each group to its owner, and everything else (the grid
// bound, cursors, per-group failure, skipped groups and the done line)
// is the driver's.
type Sweep struct {
	groups  []group
	grid    string
	done    []bool // groups the cumulative cursor covers
	todo    []int  // groups this response still owes
	cells   int    // cells of the todo groups
	skipped int    // groups the resume cursor covered
}

// SweepGroup is one execution group as the driver hands it to a
// tier's callback: the (workload, variant, scalediv) whose cells share
// one dispatch trace.
type SweepGroup struct {
	Workload string
	Variant  string
	ScaleDiv int
	g        group
}

// NewSweep resolves req into its groups at the request's scalediv
// (defaultScaleDiv when it names none; <= 0 means 1), bounds the grid
// at maxCells (<= 0 means DefaultMaxCells) and validates the resume
// cursor against the grid. A rejected request returns the HTTP status
// to answer it with.
func NewSweep(req SweepRequest, defaultScaleDiv, maxCells int) (*Sweep, int, error) {
	scaleDiv := req.ScaleDiv
	if scaleDiv <= 0 {
		scaleDiv = max(defaultScaleDiv, 1)
	}
	groups, err := resolveSweep(req, scaleDiv)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	cells := 0
	for _, g := range groups {
		cells += len(g.cells)
	}
	if maxCells <= 0 {
		maxCells = DefaultMaxCells
	}
	if cells > maxCells {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("sweep resolves to %d cells (limit %d)", cells, maxCells)
	}
	sw := &Sweep{groups: groups, grid: gridHash(groups), done: make([]bool, len(groups))}
	if req.Resume != "" {
		// A resume cursor marks groups a previous response already
		// delivered; they are skipped entirely, and cursors stay
		// cumulative over the whole grid so the client can lose this
		// stream too and resume again.
		preDone, err := decodeSweepCursor(req.Resume, sw.grid, len(groups))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		for _, i := range preDone {
			sw.done[i] = true
		}
		sw.skipped = len(preDone)
	}
	for i, g := range groups {
		if !sw.done[i] {
			sw.todo = append(sw.todo, i)
			sw.cells += len(g.cells)
		}
	}
	return sw, 0, nil
}

// Remaining is the number of groups the response will run.
func (sw *Sweep) Remaining() int { return len(sw.todo) }

// Stream runs the remaining groups with runner.Map at jobs (<= 0
// means GOMAXPROCS) and writes the NDJSON response. run returns one
// group's lines (without newlines) or an error. A group's lines are
// written together, followed by the cumulative cursor that covers it.
// Failures are per group: every cell of a failed group reports the
// error and stays out of the cursor, so a resume retries it. Groups
// runner.Map never dispatched after a cancellation report
// "skipped: <cause>" the same way. The done line comes last. Stream
// returns how many cells it reported as errors.
func (sw *Sweep) Stream(ctx context.Context, w http.ResponseWriter, jobs int, run func(context.Context, SweepGroup) ([][]byte, error)) (errCells int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// mu orders the stream: a cursor is rendered and written under the
	// lock that admits its group, so every emitted cursor is a
	// consistent prefix of completion history.
	var mu sync.Mutex
	emit := func(lines [][]byte) {
		for _, ln := range lines {
			w.Write(ln)
			w.Write(newline)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	fail := func(g group, err error) {
		lines := make([][]byte, len(g.cells))
		for i, rc := range g.cells {
			lines[i] = marshalLine(SweepLine{
				Workload: rc.cell.workload, Variant: rc.cell.variant,
				Machine: rc.cell.machine, Error: err.Error(),
			})
		}
		mu.Lock()
		defer mu.Unlock()
		errCells += len(g.cells)
		emit(lines)
	}
	processed := make([]bool, len(sw.todo))
	_, _ = runner.Map(ctx, len(sw.todo), runner.Options{Jobs: jobs},
		func(ctx context.Context, ti int) (struct{}, error) {
			processed[ti] = true
			gi := sw.todo[ti]
			g := sw.groups[gi]
			rc := g.cells[0].cell
			lines, err := run(ctx, SweepGroup{Workload: rc.workload, Variant: rc.variant, ScaleDiv: rc.scaleDiv, g: g})
			if err != nil {
				fail(g, err)
				return struct{}{}, nil
			}
			mu.Lock()
			defer mu.Unlock()
			sw.done[gi] = true
			emit(append(lines, marshalLine(SweepLine{Cursor: encodeSweepCursor(sw.grid, sw.done)})))
			return struct{}{}, nil
		})
	for ti, gi := range sw.todo {
		if !processed[ti] {
			fail(sw.groups[gi], fmt.Errorf("skipped: %w", context.Cause(ctx)))
		}
	}
	emit([][]byte{marshalLine(SweepLine{Done: true, Cells: sw.cells, Groups: len(sw.todo),
		Errors: errCells, Skipped: sw.skipped})})
	return errCells
}

var newline = []byte{'\n'}

// marshalLine renders one sweep line the driver builds itself; none
// of them can fail to marshal.
func marshalLine(l SweepLine) []byte {
	b, _ := json.Marshal(l)
	return b
}

// gridHash fingerprints a resolved sweep grid: a short digest over
// the deterministic group-key sequence. Cursors embed it so a token
// can only resume the sweep it was issued for, whichever tier issued
// it.
func gridHash(groups []group) string {
	h := sha256.New()
	for _, g := range groups {
		io.WriteString(h, g.key)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sweepCursor is the decoded form of a resume token: which groups of
// which grid are already done. The wire form is base64url-encoded
// JSON — opaque to clients, but debuggable by hand.
type sweepCursor struct {
	V    int    `json:"v"`
	Grid string `json:"grid"`
	Done []int  `json:"done"`
}

// encodeSweepCursor renders a resume token for the groups marked done.
func encodeSweepCursor(grid string, done []bool) string {
	c := sweepCursor{V: 1, Grid: grid}
	for i, d := range done {
		if d {
			c.Done = append(c.Done, i)
		}
	}
	b, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeSweepCursor validates a resume token against the grid
// fingerprint the request resolved to and its group count, and
// returns the done group indices.
func decodeSweepCursor(token, grid string, n int) ([]int, error) {
	b, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return nil, fmt.Errorf("resume cursor is not base64url: %v", err)
	}
	var c sweepCursor
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("resume cursor is not valid: %v", err)
	}
	if c.V != 1 {
		return nil, fmt.Errorf("resume cursor version %d not supported", c.V)
	}
	if c.Grid != grid {
		return nil, fmt.Errorf("resume cursor was issued for a different sweep grid")
	}
	for _, i := range c.Done {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("resume cursor references group %d of a %d-group grid", i, n)
		}
	}
	return c.Done, nil
}
