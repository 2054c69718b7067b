package core

import (
	"fmt"

	"vmopt/internal/superinst"
)

// Technique enumerates the dispatch techniques of the paper
// (Section 7.1 interpreter variants).
type Technique int

const (
	// TSwitch is switch dispatch: one shared indirect branch.
	TSwitch Technique = iota
	// TPlain is threaded code: one indirect branch per VM
	// instruction routine (the paper's baseline, "plain").
	TPlain
	// TStaticRepl is static replication with round-robin (or
	// random) copy selection.
	TStaticRepl
	// TStaticSuper is static superinstructions with greedy (or
	// optimal) selection.
	TStaticSuper
	// TStaticBoth combines static superinstructions with replicas
	// of instructions and superinstructions.
	TStaticBoth
	// TDynamicRepl is dynamic replication: a run-time code copy per
	// VM instruction instance.
	TDynamicRepl
	// TDynamicSuper is dynamic superinstructions limited to basic
	// blocks, with identical blocks sharing code (Piumarta &
	// Riccardi).
	TDynamicSuper
	// TDynamicBoth is dynamic superinstructions with replication
	// (one superinstruction per block instance, no sharing).
	TDynamicBoth
	// TAcrossBB extends dynamic superinstructions with replication
	// across basic-block boundaries; only taken VM branches, calls
	// and returns dispatch.
	TAcrossBB
	// TWithStaticSuper composes static superinstructions inside
	// dynamic superinstructions across basic blocks ("with static
	// super").
	TWithStaticSuper
	// TWithStaticSuperAcross additionally lets static
	// superinstructions cross basic-block boundaries, reverting to
	// non-replicated code on side entries ("w/static super across",
	// JVM only in the paper).
	TWithStaticSuperAcross

	numTechniques
)

var techniqueNames = [numTechniques]string{
	TSwitch:                "switch",
	TPlain:                 "plain",
	TStaticRepl:            "static repl",
	TStaticSuper:           "static super",
	TStaticBoth:            "static both",
	TDynamicRepl:           "dynamic repl",
	TDynamicSuper:          "dynamic super",
	TDynamicBoth:           "dynamic both",
	TAcrossBB:              "across bb",
	TWithStaticSuper:       "with static super",
	TWithStaticSuperAcross: "w/static super across",
}

// String returns the paper's name for the technique.
func (t Technique) String() string {
	if t < 0 || t >= numTechniques {
		return fmt.Sprintf("Technique(%d)", int(t))
	}
	return techniqueNames[t]
}

// Techniques returns all techniques in paper order.
func Techniques() []Technique {
	out := make([]Technique, numTechniques)
	for k := range out {
		out[k] = Technique(k)
	}
	return out
}

// TechniqueByName resolves a paper name (e.g. "across bb").
func TechniqueByName(name string) (Technique, error) {
	for k, n := range techniqueNames {
		if n == name {
			return Technique(k), nil
		}
	}
	return 0, fmt.Errorf("core: unknown technique %q", name)
}

// IsDynamic reports whether the technique generates code at run time.
func (t Technique) IsDynamic() bool {
	switch t {
	case TDynamicRepl, TDynamicSuper, TDynamicBoth, TAcrossBB,
		TWithStaticSuper, TWithStaticSuperAcross:
		return true
	}
	return false
}

// Config parameterizes plan construction for a technique.
type Config struct {
	// Technique selects the dispatch technique.
	Technique Technique

	// ReplicaExtra gives per-opcode extra static copies
	// (TStaticRepl, TStaticBoth). Length must be ISA.NumOps when
	// non-nil.
	ReplicaExtra []int
	// SuperReplicaExtra gives per-superinstruction extra static
	// copies (TStaticBoth).
	SuperReplicaExtra []int
	// ReplicaMode selects round-robin or random copy selection.
	ReplicaMode superinst.SelectMode
	// Seed seeds random replica selection.
	Seed int64

	// Supers is the static superinstruction table (static super
	// variants and the with-static-super dynamic variants).
	Supers *superinst.Table
	// UseOptimalParse selects the dynamic-programming parse instead
	// of greedy maximum munch.
	UseOptimalParse bool

	// ExtraLeaders lists code positions reachable through computed
	// control flow (word entry points, method entries).
	ExtraLeaders []int

	// CountStaticCopies models the Gforth implementation detail
	// that static replication copies code at interpreter startup,
	// so static schemes report a few KB of generated code
	// (Section 7.3, "code bytes").
	CountStaticCopies bool
}

// parse splits ops into superinstruction pieces of cfg.Supers, with
// the optimal or the greedy parse as cfg selects.
func (cfg *Config) parse(ops []uint32) []superinst.Piece {
	if cfg.UseOptimalParse {
		return cfg.Supers.OptimalParse(ops)
	}
	return cfg.Supers.GreedyParse(ops)
}

// dispatch cost model (native instructions / bytes).
const (
	// Threaded-code dispatch: load target, increment ip, indirect
	// jump (Figure 2).
	threadedDispatchWork  = 3
	threadedDispatchBytes = 8
	// Switch dispatch: bounds check, table load, indirect jump,
	// plus the break branch back to the dispatch site — about three
	// times the threaded sequence (Section 2.1 / Ertl & Gregg).
	switchDispatchWork  = 10
	switchDispatchBytes = 24
	// The VM instruction pointer increment kept inside dynamic
	// superinstructions (Section 5.2).
	ipIncWork  = 1
	ipIncBytes = 3
	// Per-junction native work and code saved by static
	// superinstruction cross-component optimization (Section 5.3:
	// combined stack pointer updates, stack items in registers).
	staticSuperJunctionSavedWork  = 1
	staticSuperJunctionSavedBytes = 4
)
