package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmopt/internal/disptrace"
)

// TestRecordReplayInfoVerify walks the full CLI surface: record a
// small trace, inspect it, replay it on a different machine, and
// verify byte-identical equivalence against direct simulation.
func TestRecordReplayInfoVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gray.vmdt")

	var rec bytes.Buffer
	err := run(&rec, []string{"record", "-bench", "gray", "-variant", "plain",
		"-scalediv", "40", "-o", path})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if !strings.Contains(rec.String(), "recorded gray/plain") {
		t.Errorf("record output unexpected:\n%s", rec.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}

	var info bytes.Buffer
	if err := run(&info, []string{"info", path}); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, want := range []string{"workload:   gray (forth)", "variant:    plain", "dispatches",
		"distinct steps", "bytes stored", "compression"} {
		if !strings.Contains(info.String(), want) {
			t.Errorf("info output missing %q:\n%s", want, info.String())
		}
	}

	// Replay on a machine other than the recording one, with
	// -verify: the command itself asserts byte-identity.
	var rep bytes.Buffer
	err = run(&rep, []string{"replay", "-machine", "pentium4-northwood", "-verify", path})
	if err != nil {
		t.Fatalf("replay -verify: %v", err)
	}
	if !strings.Contains(rep.String(), "verify OK") {
		t.Errorf("verify did not report OK:\n%s", rep.String())
	}
}

// TestDiffGolden pins the full `vmtrace diff` output for a switch vs
// threaded pair of one workload — the paper's Table I comparison as a
// tool. Simulation is deterministic, so the complete rendering
// (alignment totals, per-field divergence counts, the first
// divergences' addresses) must be byte-stable; a change here means
// the dispatch streams themselves moved.
func TestDiffGolden(t *testing.T) {
	dir := t.TempDir()
	swPath := filepath.Join(dir, "sw.vmdt")
	thPath := filepath.Join(dir, "th.vmdt")
	for variant, path := range map[string]string{"switch": swPath, "plain": thPath} {
		if err := run(io.Discard, []string{"record", "-bench", "gray", "-variant", variant,
			"-scalediv", "40", "-o", path}); err != nil {
			t.Fatalf("record %s: %v", variant, err)
		}
	}

	var self bytes.Buffer
	if err := run(&self, []string{"diff", swPath, swPath}); err != nil {
		t.Fatalf("self-diff: %v", err)
	}
	wantSelf := "" +
		"diff A:     gray/switch (technique switch)\n" +
		"     B:     gray/switch (technique switch)\n" +
		"workload:   gray (forth), scale 35, isa 0x098cd683601a0238\n" +
		"insts:      A 70870, B 70870 (70870 compared)\n" +
		"identical:  70870 VM instructions, 0 divergences\n"
	if self.String() != wantSelf {
		t.Errorf("self-diff output:\n%s\nwant:\n%s", self.String(), wantSelf)
	}

	var cross bytes.Buffer
	if err := run(&cross, []string{"diff", "-n", "2", swPath, thPath}); err != nil {
		t.Fatalf("cross-diff: %v", err)
	}
	wantCross := "" +
		"diff A:     gray/switch (technique switch)\n" +
		"     B:     gray/plain (technique plain)\n" +
		"workload:   gray (forth), scale 35, isa 0x098cd683601a0238\n" +
		"insts:      A 70870, B 70870 (70870 compared)\n" +
		"divergent:  70870 of 70870 compared steps (work 70869, fetch 70870, dispatch 70869)\n" +
		"first divergence at inst 0\n" +
		"  inst 0 [work fetch dispatch]:\n" +
		"    A: work 12, fetch 0x8048940, dispatch 0x80485c0 -> 0x8048970\n" +
		"    B: work 5, fetch 0x8048460, dispatch 0x8048467 -> 0x8048490\n" +
		"  inst 1 [work fetch dispatch]:\n" +
		"    A: work 14, fetch 0x8048970, dispatch 0x80485c0 -> 0x8048600\n" +
		"    B: work 7, fetch 0x8048490, dispatch 0x804849c -> 0x8048020\n"
	if cross.String() != wantCross {
		t.Errorf("cross-diff output:\n%s\nwant:\n%s", cross.String(), wantCross)
	}
}

// TestDiffRecordMode: -bench with -a/-b records both sides through a
// shared trace cache and reports the same comparison; mismatched or
// missing flags error.
func TestDiffRecordMode(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	var out bytes.Buffer
	err := run(&out, []string{"diff", "-bench", "gray", "-a", "switch", "-b", "switch",
		"-scalediv", "40", "-trace-cache", cache})
	if err != nil {
		t.Fatalf("diff record mode: %v", err)
	}
	if !strings.Contains(out.String(), "identical:") {
		t.Errorf("same-variant diff not identical:\n%s", out.String())
	}
	// The cache now holds the recording; a second diff against a real
	// second variant reuses it.
	out.Reset()
	err = run(&out, []string{"diff", "-bench", "gray", "-a", "switch", "-b", "plain",
		"-scalediv", "40", "-trace-cache", cache})
	if err != nil {
		t.Fatalf("diff record mode (cross): %v", err)
	}
	if !strings.Contains(out.String(), "first divergence at inst 0") {
		t.Errorf("cross diff missing divergence:\n%s", out.String())
	}
}

func TestBadUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"record", "-o", "x.vmdt"},   // missing -bench
		{"record", "-bench", "gray"}, // missing -o
		{"record", "-bench", "nosuch", "-o", "x"},
		{"replay"},                            // missing file
		{"replay", "a", "b"},                  // too many files
		{"replay", "-machine", "nosuch", "x"}, // unknown machine
		{"info"},
		{"diff"},             // no files, no -bench
		{"diff", "one.vmdt"}, // one file
		{"diff", "-bench", "gray", "-a", "plain"}, // missing -b
		{"diff", "-bench", "nosuch", "-a", "x", "-b", "y"},
	} {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

func TestReplayRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.vmdt")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"replay", path}); err == nil {
		t.Error("corrupt trace must error")
	}
	if err := run(io.Discard, []string{"info", path}); err == nil {
		t.Error("corrupt trace must error in info too")
	}
}

// TestInfoRejectsOldFormat: a trace file written by an older format
// version is refused with an error telling the user to re-record it.
func TestInfoRejectsOldFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.vmdt")
	if err := run(io.Discard, []string{"record", "-bench", "gray", "-variant", "plain",
		"-scalediv", "40", "-o", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{2, 4} { // v4 held a prelude
		binary.LittleEndian.PutUint16(b[4:6], v) // the version field
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		err = run(io.Discard, []string{"info", path})
		if err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Fatalf("info on a v%d file: err = %v; want a re-record error", v, err)
		}
	}
}

// TestInfoReportsResident records a trace and checks that info
// reports what it costs resident in memory.
func TestInfoReportsResident(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gray.vmdt")
	if err := run(io.Discard, []string{"record", "-bench", "gray", "-variant", "plain",
		"-scalediv", "40", "-o", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	tr, err := disptrace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var info bytes.Buffer
	if err := run(&info, []string{"info", path}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if want := fmt.Sprintf("resident:   %d bytes\n", tr.Arena().Bytes()); !strings.Contains(info.String(), want) {
		t.Errorf("info lacks %q:\n%s", want, info.String())
	}
}
