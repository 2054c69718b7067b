package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"vmopt/internal/metrics"
)

func TestMapOrderedResults(t *testing.T) {
	got, err := Map(context.Background(), 100, Options{Jobs: 8},
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapCollectsAllErrors(t *testing.T) {
	res, err := Map(context.Background(), 10, Options{Jobs: 4},
		func(_ context.Context, i int) (int, error) {
			if i%3 == 0 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("want joined error")
	}
	// All four failures (0, 3, 6, 9) must be present, not just the first.
	for _, i := range []int{0, 3, 6, 9} {
		if !strings.Contains(err.Error(), fmt.Sprintf("job %d failed", i)) {
			t.Errorf("joined error missing job %d: %v", i, err)
		}
	}
	// Successful jobs still delivered their results.
	if res[1] != 1 || res[8] != 8 {
		t.Errorf("partial results lost: %v", res)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started, progressed atomic.Int32
	running := make(chan struct{}, 2)
	go func() {
		// Wait until both workers hold a job, then cancel: jobs 2..999
		// must never be dispatched.
		<-running
		<-running
		cancel()
	}()
	_, err := Map(ctx, 1000, Options{
		Jobs:     2,
		Progress: func(done, total int) { progressed.Add(1) },
	},
		func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			running <- struct{}{}
			<-ctx.Done()
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in joined error, got %v", err)
	}
	if n := started.Load(); n != 2 {
		t.Errorf("cancellation did not stop dispatch: %d jobs started, want 2", n)
	}
	// Skipped jobs still count toward progress: done reaches total.
	if n := progressed.Load(); n != 1000 {
		t.Errorf("progress fired %d times, want 1000 (skips included)", n)
	}
}

func TestMapProgress(t *testing.T) {
	var calls []int
	_, err := Map(context.Background(), 5, Options{
		Jobs:     3,
		Progress: func(done, total int) { calls = append(calls, done) },
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 5 {
		t.Fatalf("progress called %d times, want 5", len(calls))
	}
	for k, d := range calls {
		if d != k+1 {
			t.Fatalf("progress out of order: %v", calls)
		}
	}
}

func TestMapDefaultJobsAndEmpty(t *testing.T) {
	if _, err := Map(context.Background(), 0, Options{},
		func(_ context.Context, i int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	res, err := Map(context.Background(), 3, Options{}, // Jobs <= 0 -> GOMAXPROCS
		func(_ context.Context, i int) (int, error) { return i + 1, nil })
	if err != nil || res[2] != 3 {
		t.Fatalf("default jobs run failed: %v %v", res, err)
	}
}

func sampleReport() *Report {
	c := metrics.Counters{Cycles: 1234.5, Instructions: 100, IndirectBranches: 10,
		Mispredicted: 3, ICacheMisses: 2, MissCycles: 54, CodeBytes: 7,
		VMInstructions: 40, Dispatches: 9}
	return &Report{
		Schema:   SchemaVersion,
		Exp:      "table5",
		ScaleDiv: 50,
		Experiments: []Experiment{{
			Name:   "table5",
			Tables: []Table{{ID: "Table V", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}},
			Notes:  []string{"note"},
		}},
		Runs: []Run{
			NewRun("mpeg", "plain", "pentium4", 10, c),
			NewRun("db", "across bb", "pentium4", 10, c),
		},
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSON round trip not byte-identical")
	}
	// Runs sorted by key: "db/..." before "mpeg/...".
	if got.Runs[0].Workload != "db" {
		t.Errorf("runs not sorted: %v", got.Runs)
	}
	// Serialization must not reorder the caller's report.
	if r.Runs[0].Workload != "mpeg" {
		t.Error("WriteJSON mutated the report's run order")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"schema":"vmbench/v0"}`)); err == nil {
		t.Error("wrong schema version should be rejected")
	}
}

func TestReportCSVRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadRunsCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(r.Runs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(r.Runs))
	}
	sorted := sampleReport().sortedRuns()
	for i := range runs {
		if runs[i] != sorted[i] {
			t.Errorf("run %d round trip mismatch:\n got %+v\nwant %+v", i, runs[i], sorted[i])
		}
	}
	// A headerless file must be rejected, not silently lose a row.
	lines := strings.SplitN(buf.String(), "\n", 2)
	if _, err := ReadRunsCSV(strings.NewReader(lines[1])); err == nil {
		t.Error("headerless CSV should be rejected")
	}
}
