package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"vmopt/internal/disptrace"
	"vmopt/internal/obs"
)

// TestCompiledTierServing drives the compiled-replay tier end to end:
// one workload/variant across three machines shares one cached trace,
// so with CompileAfter=1 the second request's disk load builds the
// arena and the third is served straight from it. Responses must stay
// byte-identical to the direct harness result, the request outcome
// must report "compiled", and the tier's activity must show up in both
// /v1/stats and /metrics.
func TestCompiledTierServing(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Traces:       disptrace.NewCache(t.TempDir()),
		CompileAfter: 1,
	})
	if s.cfg.Traces.Compiled == nil {
		t.Fatal("server did not install a compiled tier on its trace cache")
	}

	// Distinct machines miss the result LRU but share the (workload,
	// variant, scalediv) trace: request 1 records it, request 2 loads
	// it from disk (and compiles), request 3 is served from the arena.
	machines := []string{"celeron-800", "pentium4-northwood", "pentium-m"}
	for i, m := range machines {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(
			`{"workload":"gray","variant":"plain","machine":"`+m+`","scalediv":400}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", "compiled-"+m)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): HTTP %d: %s", i, m, resp.StatusCode, body)
		}
		if want := directRun(t, "gray", "plain", m); !bytes.Equal(body.Bytes(), want) {
			t.Fatalf("%s response differs from direct harness result:\ngot  %s\nwant %s", m, body, want)
		}
	}

	cs := s.cfg.Traces.CompiledStats()
	if cs.Builds == 0 || cs.Hits == 0 || cs.Bytes <= 0 || cs.Arenas == 0 {
		t.Fatalf("compiled tier saw no action: %+v", cs)
	}

	// The arena-served request reports the "compiled" outcome with a
	// "compiled" stage in its trace.
	debugBody, err := fetchOK(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dbg obs.DebugRequests
	if err := json.Unmarshal(debugBody, &dbg); err != nil {
		t.Fatal(err)
	}
	var last *obs.TraceSnapshot
	for i := range dbg.Recent {
		if dbg.Recent[i].ID == "compiled-pentium-m" {
			last = &dbg.Recent[i]
		}
	}
	if last == nil {
		t.Fatal("compiled-pentium-m trace not in /debug/requests")
	}
	if last.Outcome != "compiled" {
		t.Errorf("arena-served request outcome = %q, want compiled", last.Outcome)
	}
	found := false
	for _, st := range last.Stages {
		if st.Name == "compiled" {
			found = true
		}
	}
	if !found {
		t.Errorf("arena-served request has no compiled stage: %+v", last.Stages)
	}

	// /v1/stats carries the tier block under traces.compiled.
	statsBody, err := fetchOK(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Traces == nil || stats.Traces.Compiled == nil {
		t.Fatalf("/v1/stats lacks the compiled tier block: %s", statsBody)
	}
	if stats.Traces.Compiled.Builds == 0 || stats.Traces.Compiled.Hits == 0 {
		t.Errorf("/v1/stats compiled block shows no activity: %+v", stats.Traces.Compiled)
	}

	// /metrics exposes the tier counters with live values.
	metricsBody, err := fetchOK(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(metricsBody)
	for _, name := range []string{
		"vmserved_compiled_builds_total",
		"vmserved_compiled_hits_total",
		"vmserved_compiled_evictions_total",
		"vmserved_compiled_bytes",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if !strings.Contains(text, "vmserved_compiled_builds_total 1") {
		t.Errorf("/metrics vmserved_compiled_builds_total not 1:\n%s",
			grepLines(text, "vmserved_compiled"))
	}
}

// grepLines filters a metrics exposition to lines containing substr,
// for readable failure output.
func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestCompiledTierDisabled: a negative budget keeps the cache
// tier-free and serving exactly as before.
func TestCompiledTierDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Traces:         disptrace.NewCache(t.TempDir()),
		CompiledBudget: -1,
	})
	if s.cfg.Traces.Compiled != nil {
		t.Fatal("negative budget still installed a compiled tier")
	}
	for _, m := range []string{"celeron-800", "pentium-m"} {
		status, body := post(t, ts.URL+"/v1/run",
			RunRequest{Workload: "gray", Variant: "plain", Machine: m, ScaleDiv: testScaleDiv})
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", m, status, body)
		}
		if want := directRun(t, "gray", "plain", m); !bytes.Equal(body, want) {
			t.Fatalf("%s response differs from direct harness result", m)
		}
	}
	if cs := s.cfg.Traces.CompiledStats(); cs != (disptrace.CompiledStats{}) {
		t.Errorf("disabled tier reported stats: %+v", cs)
	}
}
