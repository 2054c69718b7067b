package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
)

// genWord emits a random unary word body ( n -- m ): a chain of
// stack-safe transformations.
func genWord(r *rand.Rand, name string) string {
	steps := []string{
		"dup *", "1+", "1-", "2*", "negate", "abs",
		"dup +", "dup xor 17 +", "%d +", "%d xor", "%d and 1+", "dup max",
	}
	var b strings.Builder
	fmt.Fprintf(&b, ": %s ", name)
	n := 3 + r.Intn(8)
	for k := 0; k < n; k++ {
		s := steps[r.Intn(len(steps))]
		if strings.Contains(s, "%d") {
			s = fmt.Sprintf(s, r.Intn(1000)+1)
		}
		b.WriteString(s)
		b.WriteString(" ")
	}
	b.WriteString("16777215 and ;")
	return b.String()
}

// genProgram builds a random but always-valid Forth program: several
// random words applied to loop indices, accumulating a checksum.
func genProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	nWords := 2 + r.Intn(4)
	var b strings.Builder
	b.WriteString("variable acc\n")
	for k := 0; k < nWords; k++ {
		b.WriteString(genWord(r, fmt.Sprintf("w%d", k)))
		b.WriteString("\n")
	}
	iters := 10 + r.Intn(30)
	fmt.Fprintf(&b, "%d 0 do\n", iters)
	for k := 0; k < nWords; k++ {
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "  i w%d acc +!\n", k)
		} else {
			fmt.Fprintf(&b, "  i dup 0< if negate then w%d acc +!\n", k)
		}
	}
	b.WriteString("loop\nacc @ .\n")
	return b.String()
}

// TestDifferentialTechniques: for a spread of random programs, every
// dispatch technique must produce the same output, the same VM
// instruction count, and plausible counters.
func TestDifferentialTechniques(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := genProgram(seed)
			cfgs := allConfigs(t, src)
			var wantOut string
			var wantVM uint64
			for k, cfg := range cfgs {
				c, out := runTech(t, src, cfg, bigBTB)
				if out == "" {
					t.Fatalf("%v produced no output for program:\n%s", cfg.Technique, src)
				}
				if k == 0 {
					wantOut, wantVM = out, c.VMInstructions
					continue
				}
				if out != wantOut {
					t.Errorf("%v: output %q != %q\nprogram:\n%s", cfg.Technique, out, wantOut, src)
				}
				if c.VMInstructions != wantVM {
					t.Errorf("%v: VM instructions %d != %d", cfg.Technique, c.VMInstructions, wantVM)
				}
				if c.Instructions == 0 || c.Cycles == 0 {
					t.Errorf("%v: empty counters %+v", cfg.Technique, c)
				}
				if c.Mispredicted > c.IndirectBranches {
					t.Errorf("%v: more mispredictions than branches", cfg.Technique)
				}
				if c.Dispatches > c.IndirectBranches {
					t.Errorf("%v: more dispatches than indirect branches", cfg.Technique)
				}
			}
		})
	}
}

// TestDifferentialRecording: for the same random programs under every
// technique, recording lowered (a disptrace.Writer as the sink, so
// core.Run records one step ID per instruction) must encode to the
// same bytes as recording per event (the same Writer behind a plain
// cpu.Sink). Decoding the recording must give back those bytes, and
// replaying it on every machine the counters of direct simulation.
func TestDifferentialRecording(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := genProgram(seed)
			for _, cfg := range allConfigs(t, src) {
				lowered, ref := disptrace.NewWriter(disptrace.Header{}), disptrace.NewWriter(disptrace.Header{})
				runSink(t, src, cfg, bigBTB, lowered)
				runSink(t, src, cfg, bigBTB, struct{ cpu.Sink }{ref})
				enc := lowered.Trace().Encode()
				if !bytes.Equal(enc, ref.Trace().Encode()) {
					t.Errorf("%v: lowered recording encodes differently from the per-event one\nprogram:\n%s", cfg.Technique, src)
				}
				tr, err := disptrace.Decode(enc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(tr.Encode(), enc) {
					t.Errorf("%v: re-encoding the decoded recording changed its bytes", cfg.Technique)
				}
				for _, m := range cpu.Machines() {
					want, _ := runTech(t, src, cfg, m)
					got, err := disptrace.ReplayMachine(tr, m)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%v on %s: replay differs from direct simulation:\n  got  %+v\n  want %+v", cfg.Technique, m.Name, got, want)
					}
				}
			}
		})
	}
}

// TestDifferentialMachines: the machine model must never change
// program semantics, only the counters.
func TestDifferentialMachines(t *testing.T) {
	src := genProgram(99)
	cfg := core.Config{Technique: core.TAcrossBB}
	var wantOut string
	for k, m := range cpu.Machines() {
		_, out := runTech(t, src, cfg, m)
		if k == 0 {
			wantOut = out
			continue
		}
		if out != wantOut {
			t.Errorf("%s: output %q != %q", m.Name, out, wantOut)
		}
	}
}

// TestDifferentialPlanIsolation: running the same program twice under
// the same plan configuration gives identical counters (no hidden
// state leaks between plan builds).
func TestDifferentialPlanIsolation(t *testing.T) {
	src := genProgram(7)
	cfg := core.Config{Technique: core.TDynamicSuper}
	c1, _ := runTech(t, src, cfg, bigBTB)
	c2, _ := runTech(t, src, cfg, bigBTB)
	if c1 != c2 {
		t.Errorf("counters differ across identical runs:\n%+v\n%+v", c1, c2)
	}
}
