// Package steptok defines the successor-run token grammar in which a
// dispatch trace stores its step-ID stream, on disk and in memory.
//
// The paper's replication and superinstructions make each dispatch's
// successor predictable, and recorded step-ID streams show it: most
// steps have the same successor as at their ID's previous occurrence.
// So a stream of step IDs is written as 16-bit tokens, each either an
// explicit ID or a run of steps that each follow their predecessor's
// last successor:
//
//	t <  Escape   the step with ID t
//	t == Escape   the step whose ID is the next two tokens, high half
//	              first (IDs of Escape and above)
//	t >= Run      (t - Run) + 1 follows
//
// Encoder and decoder keep next[id], the last successor of each step
// ID, and set next[p] = x at every explicit token x that comes right
// after step p; a follow after step p is the step next[p]. Within a run
// nothing changes next, since every step there is already its
// predecessor's last successor. A run cannot begin the stream, nor
// follow a step that has had no successor yet, and a run longer than
// MaxRun is split over several run tokens.
//
// Read decodes one token; the Encoder writes a stream as IDs arrive,
// Check validates one and counts each ID's uses, and a Reader walks one
// step by step. A consumer that walks the stream itself (cpu.Sim's
// replay loop, a diff of two traces) reads each token with Take, which
// applies the rule above in the form every walker here uses: a table of
// len(dict)+1 entries whose last entry is a virtual step before the
// first, and an explicit token x handled as next[cur] = x followed by
// one follow.
package steptok

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

const (
	// Escape marks an explicit ID of Escape or above, held in the two
	// tokens that follow it.
	Escape = 0x7fff
	// Run is the lowest run token.
	Run = 0x8000
	// MaxRun is the most follows one run token holds.
	MaxRun = 0x8000
	// MaxTokensPerStep is the most tokens one step takes: an escaped
	// explicit ID.
	MaxTokensPerStep = 3
)

// none marks an ID that has had no successor yet.
const none = math.MaxUint32

// ErrInvalid reports a token stream that breaks the grammar: a run
// first or after a step with no successor, an ID outside the
// dictionary, or a truncated escape.
var ErrInvalid = errors.New("steptok: invalid token stream")

// Read decodes the token at toks[i], which must be complete: an
// explicit step ID x with n = 0, or a run of n follows. j is the index
// of the token after it.
func Read(toks []uint16, i int) (x uint32, n int, j int) {
	t := toks[i]
	switch {
	case t >= Run:
		return 0, int(t-Run) + 1, i + 1
	case t == Escape:
		return uint32(toks[i+1])<<16 | uint32(toks[i+2]), 0, i + 3
	}
	return uint32(t), 0, i + 1
}

// Take reads the token at toks[i] of a walk over a valid stream that
// stands at step cur with the successor table next, and returns the
// follows the token stands for and the index of the token after it: an
// explicit token becomes cur's successor, followed once.
func Take(toks []uint16, i int, next []uint32, cur uint32) (n, j int) {
	x, n, j := Read(toks, i)
	if n == 0 {
		next[cur], n = x, 1
	}
	return n, j
}

// newTable returns the successor table of a walk over a dictionary of
// dict steps: no ID has a successor yet, and the walk stands at the
// virtual step dict, before the first.
func newTable(dict int) []uint32 {
	next := make([]uint32, dict+1)
	for i := range next {
		next[i] = none
	}
	return next
}

// Encoder tokenizes a stream of step IDs as they arrive. Its successor
// table has one entry per ID up to the largest seen, so IDs should be
// dense, as dictionary indexes are. The zero Encoder is ready to use.
type Encoder struct {
	toks []uint16
	// next[id] is id's last successor, none before it has one; it
	// grows to cover every ID seen.
	next []uint32
	// cur is the last step appended. Before the first, next is empty
	// and cur indexes nothing.
	cur uint32
	// run counts the follows not yet written.
	run int
}

// Append tokenizes ids, which continue the stream.
func (e *Encoder) Append(ids []uint32) {
	toks, next, cur, run := e.toks, e.next, e.cur, e.run
	for _, id := range ids {
		if cur < uint32(len(next)) && next[cur] == id {
			if run++; run == MaxRun {
				toks = append(room(toks), Run+MaxRun-1)
				run = 0
			}
			cur = id
			continue
		}
		toks = room(toks)
		if run > 0 {
			toks = append(toks, uint16(Run+run-1))
			run = 0
		}
		if cur < uint32(len(next)) {
			next[cur] = id
		}
		if id >= uint32(len(next)) {
			n := len(next)
			next = slices.Grow(next, int(id)+1-n)[:id+1]
			for i := n; i < len(next); i++ {
				next[i] = none
			}
		}
		if id < Escape {
			toks = append(toks, uint16(id))
		} else {
			toks = append(toks, Escape, uint16(id>>16), uint16(id))
		}
		cur = id
	}
	e.toks, e.next, e.cur, e.run = toks, next, cur, run
}

// room returns toks with room for a run token and one step's tokens,
// doubling its capacity when it is short: append grows a large slice
// by a quarter at a time, which allocates about five times the final
// stream in all.
func room(toks []uint16) []uint16 {
	if cap(toks)-len(toks) < 1+MaxTokensPerStep {
		return slices.Grow(toks, max(len(toks), 1<<10))
	}
	return toks
}

// Tokens writes any pending run and returns the stream so far. The
// slice stays the encoder's: appending more IDs may change it.
func (e *Encoder) Tokens() []uint16 {
	if e.run > 0 {
		e.toks = append(room(e.toks), uint16(Run+e.run-1))
		e.run = 0
	}
	return e.toks
}

// Encode tokenizes a whole stream of step IDs.
func Encode(ids []uint32) []uint16 {
	var e Encoder
	e.Append(ids)
	return e.Tokens()
}

// Check validates toks as a stream over a dictionary of dict steps,
// adding each step's use to uses[id] (uses has dict entries), and
// returns the number of steps. It stops once that number passes limit
// and returns it, so its work is bounded by limit + MaxRun steps
// whatever toks holds. Every error wraps ErrInvalid.
func Check(toks []uint16, dict int, limit uint64, uses []uint64) (uint64, error) {
	next := newTable(dict)
	uses = uses[:dict]
	cur := uint32(dict)
	var steps uint64
	for i := 0; i < len(toks) && steps <= limit; {
		if toks[i] == Escape && len(toks)-i < 3 {
			return 0, fmt.Errorf("%w: escape at token %d cut short", ErrInvalid, i)
		}
		at := i
		x, n, j := Read(toks, i)
		i = j
		if n == 0 {
			if x >= uint32(dict) {
				return 0, fmt.Errorf("%w: token %d names ID %d of a %d-step dictionary", ErrInvalid, at, x, dict)
			}
			// The explicit step itself, without reading back the
			// successor just set.
			next[cur], cur = x, x
			uses[x]++
			steps++
			continue
		}
		if next[cur] == none {
			if cur == uint32(dict) {
				return 0, fmt.Errorf("%w: the stream begins with a run", ErrInvalid)
			}
			return 0, fmt.Errorf("%w: run at token %d follows step %d, which has no successor", ErrInvalid, at, cur)
		}
		steps += uint64(n)
		cur = follow(next, uses, cur, n)
	}
	return steps, nil
}

// follow takes n follows from cur through next, adding each step's use
// to uses, and returns the step it ends at. next does not change
// within a run, so a run that comes back to its first step repeats
// the cycle it took: after one lap the rest of the whole laps are
// counted once per step of the cycle, not walked. A loop replicated
// or turned into superinstructions runs as such a cycle.
func follow(next []uint32, uses []uint64, cur uint32, n int) uint32 {
	start := cur
	for k := 1; k <= n; k++ {
		cur = next[cur]
		uses[cur]++
		if cur == start {
			if laps := (n - k) / k; laps > 0 {
				for range k {
					cur = next[cur]
					uses[cur] += uint64(laps)
				}
				n -= laps * k
			}
			start = none
		}
	}
	return cur
}

// Explicit counts the steps toks names explicitly; every other step is
// a follow.
func Explicit(toks []uint16) int {
	n := 0
	for i := 0; i < len(toks); i++ {
		switch t := toks[i]; {
		case t == Escape:
			n++
			i += 2
		case t < Run:
			n++
		}
	}
	return n
}

// Reader walks a valid token stream (see Check) step by step. The zero
// Reader is at the end of an empty stream.
type Reader struct {
	toks []uint16
	next []uint32
	// i is the index of the next token, and left the steps of the
	// current token not yet taken.
	i    int
	left int
	cur  uint32
}

// NewReader starts a walk over toks, a valid stream over a dictionary
// of dict steps.
func NewReader(toks []uint16, dict int) Reader {
	return Reader{toks: toks, next: newTable(dict), cur: uint32(dict)}
}

// Step returns the next step's ID, or false at the end of the stream.
func (r *Reader) Step() (uint32, bool) {
	var id [1]uint32
	return id[0], r.Fill(id[:]) == 1
}

// Fill writes the IDs of the next steps to dst, as many as fit before
// the end of the stream, and returns how many it wrote.
func (r *Reader) Fill(dst []uint32) int {
	toks, next := r.toks, r.next
	i, left, cur := r.i, r.left, r.cur
	k := 0
	for ; k < len(dst); k++ {
		if left == 0 {
			if i >= len(toks) {
				break
			}
			left, i = Take(toks, i, next, cur)
		}
		left--
		cur = next[cur]
		dst[k] = cur
	}
	r.i, r.left, r.cur = i, left, cur
	return k
}
