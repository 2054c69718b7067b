package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
	"vmopt/internal/runner"
	"vmopt/internal/serve"
)

// opShares is the request mix of the repository's CI load spec
// (loadspecs/ci.json): each request class's share of all requests.
// serve-replay follows it: the sweep share of pairs is chosen so runs
// and sweeps come in this ratio, and diffs and trace lists are sized
// from the sweep count.
var opShares = map[string]float64{"run": 0.55, "sweep": 0.15, "diff": 0.15, "traces": 0.15}

// zipfTheta is the CI load spec's Zipf skew, used for diff targets.
const zipfTheta = 0.9

// diffDetail is the divergence detail each diff asks for: the load
// generator's default, which the CI load spec does not override.
const diffDetail = 3

// sweepShare is the share of pairs requested as one sweep over all
// machines so that /v1/run and /v1/sweep requests come in opShares'
// ratio: a swept pair is one request, a walked pair one /v1/run per
// machine, so runs/sweeps = machines*(1-f)/f.
func sweepShare(machines int) float64 {
	runsPerSweep := opShares["run"] / opShares["sweep"]
	return float64(machines) / (float64(machines) + runsPerSweep)
}

// diffHotVariants are the gray traces /v1/diff draws pairs from: a
// hot set whose arenas together fit the compiled tier's default
// budget.
var diffHotVariants = []string{"plain", "dynamic super", "across bb"}

// runReplay is the serve-replay workload. Set-up records every
// paper-grid trace into a fresh directory; each measured pass starts a
// fresh server over that directory (a restart over a persistent trace
// cache) and requests every one of the 630 cells exactly once from
// nproc closed-loop clients, interleaved with diffs of a hot trace set
// and trace lists.
func runReplay(e *env) error {
	var dirs []string
	e.setPhase("setup")
	rec := &recordTimes{}
	err := timeSetup(e, setupReps, func(rep int) error {
		dir := filepath.Join(e.tmp, fmt.Sprintf("traces-%d", rep))
		dirs = append(dirs, dir)
		return recordGrid(e, dir, rec)
	}, func(rep int) { os.RemoveAll(dirs[rep]) })
	if err != nil {
		return err
	}
	dir := dirs[len(dirs)-1]
	if e.trace {
		e.set("disptrace.record_ms", rec.record.ms()/setupReps)
		e.set("disptrace.encode_ms", rec.encode.ms()/setupReps)
		e.set("disptrace.cache_write_ms", rec.write.ms()/setupReps)
	}

	e.setPhase("plan")
	in, err := replayInputsFor(e.ref)
	if err != nil {
		return err
	}
	reqs := planReplay(e, in)
	runsPerPass := countKind(reqs, "run")

	e.setPhase("measure")
	lat := newLatencies()
	var walls []float64
	var heap heapSampler
	ops := 0
	deltas := map[string]float64{}
	var cpuUsed time.Duration
	gc0 := readGC()
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start) < e.seconds; passes++ {
		in, err := startInstance(dir)
		if err != nil {
			return err
		}
		in.collect = e.trace
		var before map[string]float64
		if e.trace {
			if before, err = in.scrape(); err != nil {
				in.stop()
				return fmt.Errorf("scraping /metrics: %w", err)
			}
		}
		heap.start()
		t0, cpu0 := time.Now(), cpuTime()
		closedLoop(e, in, reqs, lat, passes)
		cpuUsed += cpuTime() - cpu0
		walls = append(walls, time.Since(t0).Seconds())
		heap.stop()
		ops += len(reqs)
		if e.trace {
			after, err := in.scrape()
			if err != nil {
				in.stop()
				return fmt.Errorf("scraping /metrics: %w", err)
			}
			for k, v := range after {
				deltas[k] += v - before[k]
			}
			in.addStagesTo(e)
		}
		if err := in.stop(); err != nil {
			return fmt.Errorf("stopping server: %w", err)
		}
	}

	sum := summarize(lat.windows("run"), tailPercentile(runsPerPass))
	e.set("wall_s", median(walls))
	e.set("p50_ms", sum.P50)
	e.set("tail_ms", sum.Tail)
	e.set("cpu_ms_per_op", float64(cpuUsed)/float64(time.Millisecond)/float64(ops))
	e.set("heap_mb", heap.mb())
	note(e, "run latency p%g over %d requests in %d passes of %d requests", sum.TailPct, sum.N, passes, len(reqs))
	if !e.trace {
		return nil
	}
	e.setGC(gc0)
	e.set("bench.traced_wall_s", median(walls))
	for _, st := range serverStages {
		e.set("serve."+st+"_ms", e.get("serve."+st+"_ms")/float64(passes))
	}
	setServeDeltas(e, deltas, passes)
	for _, k := range []string{"sweep", "diff", "traces"} {
		setKindLatency(e, lat, k)
	}
	e.setPhase("layers")
	return probeTraces(e, dir)
}

// recordTimes sums the per-layer cost of recording the trace cache.
type recordTimes struct{ record, encode, write nanos }

// nanos is a concurrency-safe duration sum.
type nanos struct{ atomic.Int64 }

func (n *nanos) add(d time.Duration) { n.Add(int64(d)) }
func (n *nanos) ms() float64         { return float64(n.Load()) / 1e6 }

// recordGrid records the dispatch trace of every paper-grid pair into
// a fresh cache at dir, by direct simulation on the first machine, and
// checks each recording run's counters against the reference. In a
// traced run it also times the trace encoder on its own; the cache
// write time includes the cache's own encode.
func recordGrid(e *env, dir string, rec *recordTimes) error {
	s := newGridSuite()
	cache := disptrace.NewCache(dir)
	m := paperMachines()[0]
	pairs := paperPairs()
	return parallel(len(pairs), func(i int) error {
		p := pairs[i]
		t0 := time.Now()
		tr, c, err := s.RecordTrace(p.w, p.v, m)
		if err != nil {
			return err
		}
		rec.record.add(time.Since(t0))
		e.op(e.ref.check(runner.NewRun(p.w.Name, p.v.Name, m.Name, s.Scale(p.w), c)))
		if e.trace {
			t1 := time.Now()
			tr.Encode()
			rec.encode.add(time.Since(t1))
		}
		t2 := time.Now()
		if _, _, err := cache.GetOrRecord(s.TraceKey(p.w, p.v), func() (*disptrace.Trace, error) { return tr, nil }); err != nil {
			return fmt.Errorf("caching %s/%s: %w", p.w.Name, p.v.Name, err)
		}
		rec.write.add(time.Since(t2))
		return nil
	})
}

// parallel runs fn(0..n-1) on nproc goroutines and returns the first
// error; remaining indices are skipped once one fails.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// replayInputs are the parts of a serve-replay pass that depend on
// the recorded cache's trace IDs: the hot set's diffs with their
// expected reports, and every trace ID the index must list.
type replayInputs struct {
	diffs []hotDiff
	ids   []string
}

// planReplay draws one pass's request order from the seed. A share of
// each workload's pairs, spread over its trace sizes, is requested as
// one sweep; every other pair as one /v1/run per machine, sent back to
// back the way a client walking the machine axis would. Diffs (drawn
// Zipf from the hot set) and trace lists are interleaved between these
// units in opShares' proportions, and the units are shuffled. The
// number of requests of each class is the same for every seed; keeping
// each pair's runs together makes the work of a pass nearly so.
func planReplay(e *env, in replayInputs) []request {
	r := newRand(e.seed, 0x7265706c6179)
	var names []string
	for _, m := range paperMachines() {
		names = append(names, m.Name)
	}
	pairs := paperPairs()
	byWorkload := map[string][]int{}
	var workloads []string
	for i, p := range pairs {
		if _, ok := byWorkload[p.w.Name]; !ok {
			workloads = append(workloads, p.w.Name)
		}
		byWorkload[p.w.Name] = append(byWorkload[p.w.Name], i)
	}
	// Within a workload, the pairs are ranked by the size of their
	// event stream and cut into as many strata as there are sweeps; one
	// sweep is drawn from each stratum. Whether the largest traces are
	// swept or walked machine by machine sets how many large arenas a
	// pass builds, and so the latency tail; stratifying keeps that the
	// same for every seed.
	sweep := make([]bool, len(pairs))
	sweeps := 0
	m0 := paperMachines()[0].Name
	size := func(i int) uint64 {
		p := pairs[i]
		c := e.ref.cells[runner.NewRun(p.w.Name, p.v.Name, m0, harness.ScaleAt(p.w, scaleDiv), metrics.Counters{}).Key()]
		return c.VMInstructions + c.Dispatches
	}
	for _, name := range workloads {
		idx := slices.Clone(byWorkload[name])
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(size(a), size(b)) })
		k := int(sweepShare(len(names))*float64(len(idx)) + 0.5)
		for st := 0; st < k; st++ {
			lo, hi := st*len(idx)/k, (st+1)*len(idx)/k
			sweep[idx[lo+r.IntN(hi-lo)]] = true
		}
		sweeps += k
	}
	var units [][]request
	for i, p := range pairs {
		if sweep[i] {
			units = append(units, []request{{kind: "sweep", method: "POST", path: "/v1/sweep",
				body: mustJSON(serve.SweepRequest{Workloads: []string{p.w.Name}, Variants: []string{p.v.Name},
					Machines: names, ScaleDiv: scaleDiv}),
				check: func(b []byte) error { return checkSweep(e.ref, b, len(names)) }}})
			continue
		}
		var unit []request
		for _, j := range r.Perm(len(names)) {
			unit = append(unit, request{kind: "run", method: "POST", path: "/v1/run",
				body:  mustJSON(serve.RunRequest{Workload: p.w.Name, Variant: p.v.Name, Machine: names[j], ScaleDiv: scaleDiv}),
				check: func(b []byte) error { return checkRun(e.ref, b) }})
		}
		units = append(units, unit)
	}

	perSweep := func(kind string) int { return int(float64(sweeps)*opShares[kind]/opShares["sweep"] + 0.5) }
	diffOrder := r.Perm(len(in.diffs))
	dz := newZipf(len(in.diffs), zipfTheta)
	for i := 0; i < perSweep("diff"); i++ {
		d := in.diffs[diffOrder[dz.draw(r)]]
		units = append(units, []request{{kind: "diff", method: "POST", path: "/v1/diff", body: d.body,
			check: func(b []byte) error { return checkDiff(b, d) }}})
	}
	for i := 0; i < perSweep("traces"); i++ {
		units = append(units, []request{{kind: "traces", method: "GET", path: "/v1/traces",
			check: func(b []byte) error { return checkTraceList(b, in.ids) }}})
	}

	r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	var reqs []request
	for _, u := range units {
		reqs = append(reqs, u...)
	}
	return reqs
}

// hotDiff is one /v1/diff request of the hot set with the report the
// reference expects.
type hotDiff struct {
	a, b string // trace IDs
	body []byte
	want *disptrace.DiffReport
}

// replayInputsFor resolves the hot set's trace IDs and pairs each
// diff with its report from the reference, and lists the cache's
// trace IDs. Trace IDs are content addresses of the recording
// configuration, so they are known before anything is recorded.
func replayInputsFor(ref reference) (replayInputs, error) {
	s := newGridSuite()
	var in replayInputs
	for _, p := range paperPairs() {
		in.ids = append(in.ids, s.TraceKey(p.w, p.v).ID())
	}
	slices.Sort(in.ids)
	gray := mustWorkload("gray")
	id := func(variant string) (string, error) {
		v, err := harness.VariantByName(gray, variant)
		if err != nil {
			return "", err
		}
		return s.TraceKey(gray, v).ID(), nil
	}
	for i, va := range diffHotVariants {
		for _, vb := range diffHotVariants[i+1:] {
			want, ok := ref.diffs[diffKey(gray.Name, va, vb)]
			if !ok {
				return in, fmt.Errorf("reference has no diff of %s", diffKey(gray.Name, va, vb))
			}
			a, err := id(va)
			if err != nil {
				return in, err
			}
			b, err := id(vb)
			if err != nil {
				return in, err
			}
			in.diffs = append(in.diffs, hotDiff{a: a, b: b, want: want,
				body: mustJSON(serve.DiffRequest{A: a, B: b, N: diffDetail})})
		}
	}
	return in, nil
}

// checkDiff verifies a /v1/diff body names the requested traces and
// carries exactly the reference's report.
func checkDiff(body []byte, d hotDiff) error {
	var got serve.DiffResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding diff: %w", err)
	}
	if got.A != d.a || got.B != d.b {
		return fmt.Errorf("diff of %s vs %s answered for %s vs %s", d.a, d.b, got.A, got.B)
	}
	if !reflect.DeepEqual(got.Report, d.want) {
		return fmt.Errorf("diff %s/%s vs %s/%s: report differs from the reference:\n got  %s\n want %s",
			d.want.Workload, d.want.AVariant, d.want.Workload, d.want.BVariant, mustJSON(got.Report), mustJSON(d.want))
	}
	return nil
}

func checkTraceList(body []byte, ids []string) error {
	var l serve.TraceList
	if err := json.Unmarshal(body, &l); err != nil {
		return fmt.Errorf("decoding trace list: %w", err)
	}
	var got []string
	for _, t := range l.Traces {
		got = append(got, t.ID)
	}
	slices.Sort(got)
	if l.Count != len(ids) || !slices.Equal(got, ids) {
		return fmt.Errorf("trace list holds %d traces %v; want %v", l.Count, got, ids)
	}
	return nil
}

// closedLoop sends reqs in order from nproc clients, each sending its
// next request as soon as its previous one completes.
func closedLoop(e *env, in *instance, reqs []request, lat *latencies, window int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q := &reqs[i]
				t0 := time.Now()
				body, err := in.do(q.method, q.path, q.body)
				lat.add(q.kind, window, time.Since(t0))
				if err == nil {
					err = q.check(body)
				}
				e.op(err)
			}
		}()
	}
	wg.Wait()
}

// setServeDeltas records the server-counter per-layer metrics from
// summed /metrics deltas, per pass.
func setServeDeltas(e *env, d map[string]float64, passes int) {
	per := func(name string) float64 { return d[name] / float64(passes) }
	builds := per("vmserved_compiled_builds_total")
	hits := per("vmserved_compiled_hits_total")
	e.set("compiled.builds", builds)
	e.set("compiled.hits", hits)
	e.set("compiled.evictions", per("vmserved_compiled_evictions_total"))
	e.set("compiled.hits_per_build", ratio(hits, builds))
	lh, lm := per("vmserved_cache_hits_total"), per("vmserved_cache_misses_total")
	e.set("serve.lru_hit_ratio", ratio(lh, lh+lm))
	e.set("serve.coalesced", per("vmserved_coalesced_total"))
	e.set("serve.rejected", per("vmserved_rejected_total"))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countKind counts the requests of one latency class.
func countKind(reqs []request, kind string) int {
	n := 0
	for _, r := range reqs {
		if r.kind == kind {
			n++
		}
	}
	return n
}

// setKindLatency records one request class's median and tail over all
// its samples as serve.<kind>_p50_ms and serve.<kind>_tail_ms. These
// classes are too sparse to summarize window by window.
func setKindLatency(e *env, lat *latencies, kind string) {
	var all []float64
	for _, w := range lat.windows(kind) {
		all = append(all, w...)
	}
	pct := tailPercentile(len(all))
	if pct == 0 {
		// Too few samples for any percentile to leave ten beyond it:
		// the maximum is the only tail there is.
		pct = 100
	}
	sum := summarize([][]float64{all}, pct)
	e.set("serve."+kind+"_p50_ms", sum.P50)
	e.set("serve."+kind+"_tail_ms", sum.Tail)
	note(e, "%s latency p%g over %d requests", kind, sum.TailPct, sum.N)
}
