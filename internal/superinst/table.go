// Package superinst implements the instruction-set enhancement
// algorithms of the paper: selecting superinstruction sequences and
// replica counts (Sections 5.1 and 7.1), and parsing basic blocks
// into superinstructions with the greedy (maximum munch) and optimal
// (dynamic programming) algorithms, which the paper compares and
// finds nearly equivalent (Section 5.1).
//
// The package is representation-agnostic: it works on opcode
// sequences ([]uint32) and has no dependency on a particular VM.
package superinst

import (
	"fmt"
	"math"
	"sort"
)

// Table is a set of superinstruction sequences organised as a trie
// for longest-match parsing. Sequence IDs are their insertion order.
type Table struct {
	root *trieNode
	seqs [][]uint32
}

type trieNode struct {
	children map[uint32]*trieNode
	super    int // sequence ID terminating here, -1 if none
}

func newTrieNode() *trieNode {
	return &trieNode{children: make(map[uint32]*trieNode), super: -1}
}

// NewTable builds a table from the given sequences. Sequences of
// length < 2 are rejected: a one-instruction superinstruction is just
// the instruction.
func NewTable(seqs [][]uint32) (*Table, error) {
	t := &Table{root: newTrieNode()}
	for _, s := range seqs {
		if len(s) < 2 {
			return nil, fmt.Errorf("superinst: sequence %v too short", s)
		}
		n := t.root
		for _, op := range s {
			c, ok := n.children[op]
			if !ok {
				c = newTrieNode()
				n.children[op] = c
			}
			n = c
		}
		if n.super >= 0 {
			return nil, fmt.Errorf("superinst: duplicate sequence %v", s)
		}
		n.super = len(t.seqs)
		cp := make([]uint32, len(s))
		copy(cp, s)
		t.seqs = append(t.seqs, cp)
	}
	return t, nil
}

// MustNewTable is NewTable that panics on error.
func MustNewTable(seqs [][]uint32) *Table {
	t, err := NewTable(seqs)
	if err != nil {
		panic(err)
	}
	return t
}

// NumSupers returns the number of sequences in the table.
func (t *Table) NumSupers() int { return len(t.seqs) }

// Seq returns the opcode sequence for a superinstruction ID.
func (t *Table) Seq(id int) []uint32 { return t.seqs[id] }

// Piece is one element of a parse: Len instructions starting at Start,
// either a superinstruction (Super >= 0, an ID into the table) or a
// single plain instruction (Super == -1, Len == 1).
type Piece struct {
	Start int
	Len   int
	Super int
}

// longestMatch returns the longest table sequence matching ops[i:],
// or (-1, 0).
func (t *Table) longestMatch(ops []uint32, i int) (super, length int) {
	super, length = -1, 0
	n := t.root
	for k := i; k < len(ops); k++ {
		c, ok := n.children[ops[k]]
		if !ok {
			break
		}
		n = c
		if n.super >= 0 {
			super, length = n.super, k-i+1
		}
	}
	return super, length
}

// GreedyParse covers ops with the maximum-munch strategy: at each
// position take the longest matching superinstruction, else a plain
// instruction.
func (t *Table) GreedyParse(ops []uint32) []Piece {
	var out []Piece
	for i := 0; i < len(ops); {
		if s, l := t.longestMatch(ops, i); s >= 0 {
			out = append(out, Piece{Start: i, Len: l, Super: s})
			i += l
			continue
		}
		out = append(out, Piece{Start: i, Len: 1, Super: -1})
		i++
	}
	return out
}

// OptimalParse covers ops with the minimum number of pieces using
// dynamic programming (the dictionary-compression optimum the paper
// compares against greedy).
func (t *Table) OptimalParse(ops []uint32) []Piece {
	n := len(ops)
	if n == 0 {
		return nil
	}
	const inf = int(^uint(0) >> 1)
	// cost[i] = min pieces to cover ops[i:]; choice[i] = piece taken.
	cost := make([]int, n+1)
	choice := make([]Piece, n)
	for i := n - 1; i >= 0; i-- {
		cost[i] = inf
		// Plain instruction.
		if cost[i+1] < inf {
			cost[i] = cost[i+1] + 1
			choice[i] = Piece{Start: i, Len: 1, Super: -1}
		}
		// All table matches at i (walk the trie once).
		node := t.root
		for k := i; k < n; k++ {
			c, ok := node.children[ops[k]]
			if !ok {
				break
			}
			node = c
			if node.super >= 0 {
				l := k - i + 1
				if cost[i+l] < inf && cost[i+l]+1 < cost[i] {
					cost[i] = cost[i+l] + 1
					choice[i] = Piece{Start: i, Len: l, Super: node.super}
				}
			}
		}
	}
	var out []Piece
	for i := 0; i < n; {
		p := choice[i]
		out = append(out, p)
		i += p.Len
	}
	return out
}

// SeqCount is a candidate sequence with its occurrence count.
type SeqCount struct {
	Seq   []uint32
	Count uint64
}

// CollectSequences counts all contiguous subsequences of length
// 2..maxLen within the given basic blocks (static appearance counts,
// as used for the JVM superinstruction selection in Section 7.1).
// Counts may be weighted per block by weight (e.g. execution
// frequency for training-run profiles); pass nil for weight 1 each.
func CollectSequences(blocks [][]uint32, maxLen int, weights []uint64) []SeqCount {
	counts := make(map[string]uint64)
	seqs := make(map[string][]uint32)
	for bi, b := range blocks {
		w := uint64(1)
		if weights != nil {
			w = weights[bi]
		}
		for i := 0; i < len(b); i++ {
			for l := 2; l <= maxLen && i+l <= len(b); l++ {
				key := seqKey(b[i : i+l])
				counts[key] += w
				if _, ok := seqs[key]; !ok {
					cp := make([]uint32, l)
					copy(cp, b[i:i+l])
					seqs[key] = cp
				}
			}
		}
	}
	out := make([]SeqCount, 0, len(counts))
	for k, c := range counts {
		out = append(out, SeqCount{Seq: seqs[k], Count: c})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return seqKey(out[a].Seq) < seqKey(out[b].Seq)
	})
	return out
}

func seqKey(s []uint32) string {
	b := make([]byte, 0, len(s)*4)
	for _, op := range s {
		b = append(b, byte(op), byte(op>>8), byte(op>>16), byte(op>>24))
	}
	return string(b)
}

// SelectTop picks up to n sequences by score. shortBias > 0 favors
// shorter sequences (paper Section 7.1: "we gave shorter sequences a
// higher weighting because they are more likely to appear in other
// programs"): score = count / len^shortBias.
func SelectTop(counts []SeqCount, n int, shortBias float64) [][]uint32 {
	type scored struct {
		seq   []uint32
		score float64
	}
	ss := make([]scored, len(counts))
	for k, c := range counts {
		div := 1.0
		if shortBias > 0 {
			div = math.Pow(float64(len(c.Seq)), shortBias)
		}
		ss[k] = scored{seq: c.Seq, score: float64(c.Count) / div}
	}
	sort.SliceStable(ss, func(a, b int) bool { return ss[a].score > ss[b].score })
	if n > len(ss) {
		n = len(ss)
	}
	out := make([][]uint32, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, ss[k].seq)
	}
	return out
}
