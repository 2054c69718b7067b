package steptok

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestEncodeExamples pins the tokens of small streams by hand.
func TestEncodeExamples(t *testing.T) {
	for _, c := range []struct {
		name string
		ids  []uint32
		want []uint16
	}{
		{"empty", nil, nil},
		{"one", []uint32{5}, []uint16{5}},
		// 0 and 1 get their successors at their first repeats, and the
		// rest follows.
		{"loop", []uint32{0, 1, 0, 1, 0, 1}, []uint16{0, 1, 0, Run + 2}},
		// A changed successor is explicit again, and becomes the one a
		// later follow takes.
		{"changed successor", []uint32{0, 1, 0, 2, 0, 2}, []uint16{0, 1, 0, 2, 0, Run}},
		{"self loop", []uint32{3, 3, 3, 3}, []uint16{3, 3, Run + 1}},
		{"escaped", []uint32{Escape, 1 << 20, Escape}, []uint16{Escape, 0, Escape, Escape, 0x10, 0, Escape, 0, Escape}},
	} {
		if got := Encode(c.ids); !slices.Equal(got, c.want) {
			t.Errorf("%s: Encode(%v) = %#x, want %#x", c.name, c.ids, got, c.want)
		}
	}
	// A run of MaxRun+1 follows splits into a full run token and one of
	// a single follow.
	ids := make([]uint32, MaxRun+3)
	if got, want := Encode(ids), []uint16{0, 0, 0xffff, Run}; !slices.Equal(got, want) {
		t.Errorf("a run of MaxRun+1 follows: %#x, want %#x", got, want)
	}
}

// loopIDs draws a stream of n IDs below dict that mostly repeats short
// loops, as an interpreter does, with occasional jumps and IDs near the
// top of the dictionary.
func loopIDs(r *rand.Rand, dict, n int) []uint32 {
	ids := make([]uint32, 0, n)
	for len(ids) < n {
		loop := make([]uint32, 1+r.IntN(6))
		for i := range loop {
			loop[i] = uint32(r.IntN(dict))
			if r.IntN(8) == 0 {
				loop[i] = uint32(dict - 1 - r.IntN(min(dict, 3)))
			}
		}
		for range 1 + r.IntN(40) {
			ids = append(ids, loop...)
		}
	}
	return ids[:n]
}

// TestWalkersAgree: for random streams over small and escaping
// dictionaries, encoded all at once or in random batches, Check
// accepts the tokens and counts each ID's uses, and Reader.Step and
// Reader.Fill in random chunks both give back the IDs.
func TestWalkersAgree(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for iter := range 400 {
		dict := []int{1, 2, 3, 100, 351, Escape + 2, 1 << 17}[iter%7]
		ids := loopIDs(r, dict, r.IntN(3000))
		toks := Encode(ids)
		var e Encoder
		for rest := ids; len(rest) > 0; {
			k := min(len(rest), 1+r.IntN(50))
			e.Append(rest[:k])
			rest = rest[k:]
		}
		if batched := e.Tokens(); !slices.Equal(batched, toks) {
			t.Fatalf("dict %d: batched encoding differs", dict)
		}

		uses := make([]uint64, dict)
		n, err := Check(toks, dict, uint64(len(ids)), uses)
		if err != nil || n != uint64(len(ids)) {
			t.Fatalf("dict %d: Check = %d, %v; want %d steps", dict, n, err, len(ids))
		}
		want := make([]uint64, dict)
		for _, id := range ids {
			want[id]++
		}
		if !slices.Equal(uses, want) {
			t.Fatalf("dict %d: Check counted other uses", dict)
		}
		if explicit := Explicit(toks); explicit > len(ids) || (len(ids) > 0) != (explicit > 0) {
			t.Fatalf("dict %d: %d explicit steps of %d", dict, explicit, len(ids))
		}

		rd := NewReader(toks, dict)
		var stepped []uint32
		for {
			id, ok := rd.Step()
			if !ok {
				break
			}
			stepped = append(stepped, id)
		}
		if !slices.Equal(stepped, ids) {
			t.Fatalf("dict %d: Step walked %d IDs, want %d", dict, len(stepped), len(ids))
		}

		rd = NewReader(toks, dict)
		var filled []uint32
		buf := make([]uint32, 1+r.IntN(100))
		for {
			k := rd.Fill(buf[:1+r.IntN(len(buf))])
			if k == 0 {
				break
			}
			filled = append(filled, buf[:k]...)
		}
		if !slices.Equal(filled, ids) {
			t.Fatalf("dict %d: Fill gave %d IDs, want %d", dict, len(filled), len(ids))
		}
	}
}

// TestCheckRejects: every grammar error wraps ErrInvalid, and a stream
// longer than the limit stops Check early with a count past it.
func TestCheckRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		toks []uint16
	}{
		{"run first", []uint16{Run, 0}},
		{"follow undefined", []uint16{0, Run}},
		{"follow undefined later", []uint16{0, 1, Run + 4}},
		{"id equals dict", []uint16{0, 3}},
		{"escaped id out of range", []uint16{Escape, 1, 0}},
		{"escape cut short", []uint16{0, Escape, 0}},
		{"escape alone", []uint16{Escape}},
	} {
		if _, err := Check(c.toks, 3, 100, make([]uint64, 3)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Check err %v, want ErrInvalid", c.name, err)
		}
	}
	// 0 then 3 × 0xffff runs of self-follows: Check stops after the
	// run that passes the limit.
	toks := []uint16{0, 0, 0xffff, 0xffff, 0xffff}
	n, err := Check(toks, 1, 10, make([]uint64, 1))
	if err != nil || n != 2+MaxRun {
		t.Errorf("a stream past its limit: Check = %d, %v; want %d, nil", n, err, 2+MaxRun)
	}
}
