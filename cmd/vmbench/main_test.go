package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/runner"
)

func testSuite(scaleDiv int) *harness.Suite {
	s := harness.NewSuite()
	s.ScaleDiv = scaleDiv
	return s
}

// TestRunKnownExperiments smoke-tests the cheap experiments through
// the dispatcher (the expensive figures are covered by the harness
// package's own tests).
func TestRunKnownExperiments(t *testing.T) {
	s := testSuite(40)
	for _, exp := range []string{"table1", "table2", "table3", "table4", "table6", "table7"} {
		if err := run(io.Discard, s, exp, "text", ""); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, testSuite(1), "fig99", "text", ""); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run(io.Discard, testSuite(1), "table6", "yaml", ""); err == nil {
		t.Error("unknown format should error")
	}
}

// TestRunSingleExperimentSelection: -exp selects exactly one
// experiment's tables.
func TestRunSingleExperimentSelection(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, testSuite(40), "table6", "text", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table VI") {
		t.Errorf("table6 output missing its table:\n%s", out)
	}
	if strings.Contains(out, "Table VII") {
		t.Error("selecting table6 also rendered table7")
	}
}

// TestJSONRoundTrip: -format json emits a schema-versioned report
// that parses back and re-serializes to identical bytes.
func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := testSuite(50)
	if err := run(&buf, s, "table5", "json", ""); err != nil {
		t.Fatal(err)
	}
	rep, err := runner.ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exp != "table5" || rep.ScaleDiv != 50 {
		t.Errorf("report meta wrong: exp=%q scalediv=%d", rep.Exp, rep.ScaleDiv)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "table5" {
		t.Fatalf("want one table5 experiment, got %+v", rep.Experiments)
	}
	if len(rep.Runs) == 0 {
		t.Fatal("report carries no runs")
	}
	var buf2 bytes.Buffer
	if err := rep.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSON round trip not byte-identical")
	}
}

// TestCSVRoundTrip: the CSV form carries the same runs as the JSON
// form and parses back exactly.
func TestCSVRoundTrip(t *testing.T) {
	s := testSuite(50)
	var jsonBuf, csvBuf bytes.Buffer
	if err := run(&jsonBuf, s, "table5", "json", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&csvBuf, s, "table5", "csv", ""); err != nil {
		t.Fatal(err)
	}
	rep, err := runner.ReadReport(bytes.NewReader(jsonBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := runner.ReadRunsCSV(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(rep.Runs) {
		t.Fatalf("CSV has %d runs, JSON has %d", len(runs), len(rep.Runs))
	}
	for i := range runs {
		if runs[i] != rep.Runs[i] {
			t.Errorf("run %d: CSV %+v != JSON %+v", i, runs[i], rep.Runs[i])
		}
	}
}

// TestOutDir: -out writes the report into the directory for every
// format, including text.
func TestOutDir(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, testSuite(50), "table5", "json", dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.ReadReport(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 {
		t.Error("written report carries no runs")
	}
	if err := run(io.Discard, testSuite(40), "table6", "text", dir); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "Table VI") {
		t.Errorf("text output file missing table:\n%s", txt)
	}
}

// TestListExps: every registry entry appears as its own -list line
// with a description, and the selectable names all resolve. Matching
// is anchored per line so a prefix-shadowed name ("table1" inside
// "table10") cannot mask a missing entry.
func TestListExps(t *testing.T) {
	var buf bytes.Buffer
	listExps(&buf)
	listed := make(map[string]string) // name -> description column
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "  ") && len(fields) >= 2 {
			listed[fields[0]] = strings.Join(fields[1:], " ")
		}
	}
	for _, e := range experiments() {
		if desc, ok := listed[e.name]; !ok {
			t.Errorf("-list output missing experiment %q", e.name)
		} else if desc == "" {
			t.Errorf("experiment %q listed without a description", e.name)
		}
		if e.desc == "" {
			t.Errorf("experiment %q has no description", e.name)
		}
		if _, err := selectExps(e.name); err != nil {
			t.Errorf("selectExps(%q): %v", e.name, err)
		}
	}
	if _, ok := listed["all"]; !ok {
		t.Error("-list output missing the all pseudo-experiment")
	}
}

// TestAllExcludesComposites: "all" must not render composite
// experiments (their tables would duplicate the standalone entries).
func TestAllExcludesComposites(t *testing.T) {
	all, err := selectExps("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.composite {
			t.Errorf("composite experiment %q included in all", e.name)
		}
	}
	if _, err := selectExps("sweep"); err != nil {
		t.Errorf("sweep must stay individually selectable: %v", err)
	}
}

// TestSweepWithTraceCache: the composite sweep runs under a trace
// cache and produces byte-identical structured runs to a no-cache
// suite; the warm cache reuses the recorded traces.
func TestSweepWithTraceCache(t *testing.T) {
	plain, err := collect(testSuite(40), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Runs) == 0 {
		t.Fatal("sweep produced no runs")
	}

	dir := t.TempDir()
	cached := testSuite(40)
	cached.Traces = disptrace.NewCache(dir)
	got, err := collect(cached, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(plain.Runs) {
		t.Fatalf("trace-cached sweep has %d runs, plain %d", len(got.Runs), len(plain.Runs))
	}
	for i := range got.Runs {
		if got.Runs[i] != plain.Runs[i] {
			t.Errorf("run %d diverged under trace cache:\n  plain  %+v\n  cached %+v",
				i, plain.Runs[i], got.Runs[i])
		}
	}
	traces, err := filepath.Glob(filepath.Join(dir, "*.vmdt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Error("sweep recorded no traces")
	}

	warm := testSuite(40)
	warm.Traces = disptrace.NewCache(dir)
	again, err := collect(warm, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Runs {
		if again.Runs[i] != plain.Runs[i] {
			t.Errorf("warm-cache run %d diverged:\n  plain %+v\n  warm  %+v",
				i, plain.Runs[i], again.Runs[i])
		}
	}
}

// TestRejectsArguments: vmbench takes no positional argument. Each one,
// including the removed diff subcommand's, exits 2 with a usage message
// before any experiment runs: the table5 run the flags select would
// write results.json.
func TestRejectsArguments(t *testing.T) {
	for _, args := range [][]string{
		{"diff", "baseline.json"},
		{"table5"},
		{"-exp", "table5", "extra"},
	} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		full := append([]string{"-scalediv", "50", "-format", "json", "-out", dir, "-exp", "table5"}, args...)
		if code := vmbench(full, &stdout, &stderr); code != 2 {
			t.Errorf("vmbench %q exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "takes no arguments") {
			t.Errorf("vmbench %q: stderr lacks the usage message: %q", args, stderr.String())
		}
		if _, err := os.Stat(filepath.Join(dir, "results.json")); !os.IsNotExist(err) {
			t.Errorf("vmbench %q ran an experiment before rejecting its arguments", args)
		}
	}
}
