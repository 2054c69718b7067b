package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vmopt/internal/disptrace"
	"vmopt/internal/metrics"
	"vmopt/internal/runner"
	"vmopt/internal/serve"
)

func TestQuantileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100}, {0, 1}, {0.5, 1}, {1, 1},
	} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if s[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {40, 75}, {100, 90}, {423, 97.5}, {440, 97.5},
		{1000, 99}, {1200, 99}, {2000, 99.5}, {10000, 99.9}, {100000, 99.99},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		if p > 0 {
			if beyond := c.n - 1 - rank(c.n, p); beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

// TestSummarizeWindows checks each window's median and tail are taken
// on its own and one disturbed window does not set the figures.
func TestSummarizeWindows(t *testing.T) {
	var a, b, slow []float64
	for i := 1; i <= 440; i++ {
		a = append(a, float64(i))
		b = append(b, float64(i)+0.5)
		slow = append(slow, float64(i)+1000)
	}
	sum := summarize([][]float64{a, slow, b}, tailPercentile(440))
	if sum.P50 != 220.5 || sum.TailPct != 97.5 || sum.Tail != 429.5 || sum.N != 1320 {
		t.Errorf("summarize = %+v, want p50 220.5, p97.5 429.5 over 1320", sum)
	}
}

func testRef(t *testing.T) reference {
	t.Helper()
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestReferenceCoversWorkloads checks the checked-in reference holds
// every cell serve-replay requests, and the grid size.
func TestReferenceCoversWorkloads(t *testing.T) {
	ref := testRef(t)
	if ref.gridCells <= 0 {
		t.Fatalf("reference grid_cells = %d", ref.gridCells)
	}
	n := 0
	for _, sp := range paperGridSpecs(paperMachines()) {
		key := runner.NewRun(sp.W.Name, sp.V.Name, sp.M.Name, newGridSuite().Scale(sp.W), metrics.Counters{}).Key()
		if _, ok := ref.cells[key]; !ok {
			t.Errorf("reference misses %s", key)
		}
		n++
	}
	if n != 630 {
		t.Errorf("paper grid has %d cells, want 630", n)
	}
}

// TestPerturbedCounterFails perturbs each counter field of a reference
// cell in turn, the float fields by one ulp, and checks the comparison
// names exactly that field and the run counts it as a failed operation.
func TestPerturbedCounterFails(t *testing.T) {
	ref := testRef(t)
	sp := paperGridSpecs(paperMachines())[0]
	cell := func(c metrics.Counters) runner.Run {
		return runner.NewRun(sp.W.Name, sp.V.Name, sp.M.Name, newGridSuite().Scale(sp.W), c)
	}
	want := ref.cells[cell(metrics.Counters{}).Key()]
	if err := ref.check(cell(want)); err != nil {
		t.Fatalf("unperturbed cell fails: %v", err)
	}

	typ := reflect.TypeOf(want)
	for i := 0; i < typ.NumField(); i++ {
		got := want
		f := reflect.ValueOf(&got).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		}
		d := counterDiff(want, got)
		if len(d) != 1 || !bytes.HasPrefix([]byte(d[0]), []byte(typ.Field(i).Name+":")) {
			t.Errorf("perturbing %s: diff = %v", typ.Field(i).Name, d)
		}
		e := &env{workload: "test", ref: ref, metrics: map[string]float64{}}
		e.op(ref.check(cell(got)))
		if e.failed.Load() != 1 || e.attempted.Load() != 1 {
			t.Errorf("perturbing %s: %d of %d operations failed, want 1 of 1",
				typ.Field(i).Name, e.failed.Load(), e.attempted.Load())
		}
	}

	e := &env{workload: "test", ref: ref, metrics: map[string]float64{}}
	e.op(ref.check(runner.Run{Workload: "nosuch", Variant: "plain", Machine: "celeron-800", Scale: 1}))
	if e.failed.Load() != 1 {
		t.Error("a cell missing from the reference did not count as failed")
	}
}

// fingerprint renders the parts of a request sequence the seed
// decides.
func fingerprint(reqs []request) string {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%s %s %s %s\n", r.kind, r.method, r.path, r.body)
	}
	return b.String()
}

func testInputs(t *testing.T) replayInputs {
	t.Helper()
	in, err := replayInputsFor(testRef(t))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSameSeedSameRequests(t *testing.T) {
	ref, in := testRef(t), testInputs(t)
	plan := func(seed uint64) string { return fingerprint(planReplay(&env{seed: seed, ref: ref}, in)) }
	a, b, c := plan(7), plan(7), plan(8)
	if a != b {
		t.Error("seed 7 gave two different request sequences")
	}
	if a == c {
		t.Error("seeds 7 and 8 gave the same request sequence")
	}
}

// TestReplayPlanCoversGridOnce checks one serve-replay pass asks for
// every paper-grid cell exactly once, through runs or sweeps.
func TestReplayPlanCoversGridOnce(t *testing.T) {
	reqs := planReplay(&env{seed: 3, ref: testRef(t)}, testInputs(t))
	cells := countKind(reqs, "run") + len(paperMachines())*countKind(reqs, "sweep")
	if cells != 630 {
		t.Errorf("plan covers %d cells, want 630", cells)
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.kind == "run" || r.kind == "sweep" {
			if seen[string(r.body)] {
				t.Errorf("request %s planned twice", r.body)
			}
			seen[string(r.body)] = true
		}
	}
}

// TestReplayPlanFollowsCISpec checks the request mix is the CI load
// spec's: opShares and zipfTheta are copied from loadspecs/ci.json,
// and a pass's classes come in those shares.
func TestReplayPlanFollowsCISpec(t *testing.T) {
	b, err := os.ReadFile("../loadspecs/ci.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Ops       map[string]float64 `json:"ops"`
		ZipfTheta float64            `json:"zipf_theta"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Ops, opShares) || spec.ZipfTheta != zipfTheta {
		t.Errorf("ci.json has ops %v, theta %g; the benchmark uses %v, %g", spec.Ops, spec.ZipfTheta, opShares, zipfTheta)
	}
	for _, seed := range []uint64{1, 2} {
		reqs := planReplay(&env{seed: seed, ref: testRef(t)}, testInputs(t))
		for kind, share := range opShares {
			if got := float64(countKind(reqs, kind)) / float64(len(reqs)); math.Abs(got-share) > 0.025 {
				t.Errorf("seed %d: %s is %.3f of %d requests, want %.2f", seed, kind, got, len(reqs), share)
			}
		}
	}
}

// TestPerturbedDiffFails checks every hot-set diff has a reference
// report, the exact report passes, and a report or trace ID changed in
// any one field counts as a failed operation.
func TestPerturbedDiffFails(t *testing.T) {
	in := testInputs(t)
	if len(in.diffs) != 3 {
		t.Fatalf("hot set has %d diffs, want 3", len(in.diffs))
	}
	body := func(a, b string, rep *disptrace.DiffReport) []byte {
		return append(mustJSON(serve.DiffResponse{A: a, B: b, Report: rep}), '\n')
	}
	for _, d := range in.diffs {
		if err := checkDiff(body(d.a, d.b, d.want), d); err != nil {
			t.Fatalf("unperturbed diff fails: %v", err)
		}
		if d.want.Identical || d.want.Divergences == 0 || len(d.want.First) == 0 {
			t.Errorf("diff %s/%s vs %s: reference reports no divergence", d.want.Workload, d.want.AVariant, d.want.BVariant)
		}
		cases := map[string][]byte{"swapped IDs": body(d.b, d.a, d.want)}
		typ := reflect.TypeOf(*d.want)
		for i := 0; i < typ.NumField(); i++ {
			rep := *d.want
			rep.First = slices.Clone(rep.First)
			f := reflect.ValueOf(&rep).Elem().Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Slice:
				rep.First[len(rep.First)-1].Inst++
			default:
				t.Fatalf("unhandled report field kind %s", f.Kind())
			}
			cases[typ.Field(i).Name] = body(d.a, d.b, &rep)
		}
		for name, b := range cases {
			e := &env{workload: "test", metrics: map[string]float64{}}
			e.op(checkDiff(b, d))
			if e.failed.Load() != 1 {
				t.Errorf("diff with perturbed %s did not count as failed", name)
			}
		}
	}
}

// TestReportRequiresLayerMetrics checks a traced run fails to report
// when a per-layer metric of its workload is missing, or when it set
// one listed only for another workload.
func TestReportRequiresLayerMetrics(t *testing.T) {
	traced := func(workload string) *env {
		e := &env{workload: workload, trace: true, metrics: map[string]float64{}}
		for _, m := range perLayer {
			if slices.Contains(m.in, workload) {
				e.metrics[m.name] = 1
			}
		}
		return e
	}
	for _, w := range workloadNames() {
		e := traced(w)
		res, err := e.report()
		if err != nil {
			t.Fatalf("%s: complete traced run: %v", w, err)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: reported %d metrics, want %d", w, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			e := traced(w)
			if slices.Contains(m.in, w) {
				delete(e.metrics, m.name)
			} else {
				e.metrics[m.name] = 1
			}
			if _, err := e.report(); err == nil {
				t.Errorf("%s: run that did not set %s as listed reported", w, m.name)
			}
		}
	}
	e := &env{workload: "grid-direct", metrics: map[string]float64{"setup_s": 1}}
	if _, err := e.report(); err == nil {
		t.Error("untraced run missing end-to-end metrics reported")
	}
}

func TestZipfFavorsLowRanks(t *testing.T) {
	z := newZipf(6, 0.9)
	r := newRand(1, 1)
	counts := make([]int, 6)
	for i := 0; i < 60000; i++ {
		counts[z.draw(r)]++
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Errorf("rank %d drawn %d times, rank %d %d times", i, counts[i], i-1, counts[i-1])
		}
	}
}

func TestServerTimingSums(t *testing.T) {
	in := &instance{stages: map[string]float64{}}
	in.addStages("parse;dur=0.125, trace_load;dur=2.000, other;dur=0.010")
	in.addStages("parse;dur=0.375")
	in.addStages("")
	if in.stages["parse"] != 0.5 || in.stages["trace_load"] != 2 || in.stages["other"] != 0.01 {
		t.Errorf("stage sums = %v", in.stages)
	}
}

// TestMetricsMatchBenchmarkJSON checks the metrics the program prints
// are exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	render := func(ms []struct{ Name, Unit string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name+" "+m.Unit)
		}
		return strings.Join(s, "\n")
	}
	var e2e, layer []struct{ Name, Unit string }
	for _, m := range endToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.name, m.unit})
	}
	for _, m := range perLayer {
		layer = append(layer, struct{ Name, Unit string }{m.name, m.unit})
	}
	if got, want := render(e2e), render(spec.EndToEnd); got != want {
		t.Errorf("end-to-end metrics:\n%s\nBENCHMARK.json declares:\n%s", got, want)
	}
	if got, want := render(layer), render(spec.PerLayer); got != want {
		t.Errorf("per-layer metrics:\n%s\nBENCHMARK.json declares:\n%s", got, want)
	}
}
