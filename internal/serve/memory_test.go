package serve

import (
	"bytes"
	"net/http"
	"testing"

	"vmopt/internal/disptrace"
)

// TestMemoryTierServing drives the trace cache's memory end to end:
// /v1/run of one workload/variant on three machines misses the result
// LRU each time but shares one cached trace, so request 1 records it
// and keeps the recording in memory, and requests 2 and 3 are served
// from memory with no disk read. A self-diff of the trace then loads
// it twice by ID through the same ladder, so those two loads are
// memory hits too and count in vmserved_trace_loads_total (4 loads and
// 4 memory hits in all). Every body must stay byte-identical to the
// direct harness result, and the memory hits must show up in /metrics.
func TestMemoryTierServing(t *testing.T) {
	traces := disptrace.NewCache(t.TempDir())
	_, ts := newTestServer(t, Config{Traces: traces})
	for _, m := range []string{"celeron-800", "pentium4-northwood", "pentium-m"} {
		status, body := post(t, ts.URL+"/v1/run",
			RunRequest{Workload: "gray", Variant: "plain", Machine: m, ScaleDiv: testScaleDiv})
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", m, status, body)
		}
		if want := directRun(t, "gray", "plain", m); !bytes.Equal(body, want) {
			t.Fatalf("%s response differs from direct harness result:\ngot  %s\nwant %s", m, body, want)
		}
	}

	entries, err := traces.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("trace cache lists %v, %v; want one trace", entries, err)
	}
	id := entries[0].ID
	if status, body := post(t, ts.URL+"/v1/diff", DiffRequest{A: id, B: id}); status != http.StatusOK {
		t.Fatalf("self-diff: HTTP %d: %s", status, body)
	}

	series := scrape(t, ts.URL)
	for key, want := range map[string]float64{
		"vmserved_trace_records_total":          1,
		"vmserved_trace_loads_total":            4,
		"vmserved_trace_memory_hits_total":      4,
		"vmserved_trace_memory_evictions_total": 0,
	} {
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if got := series["vmserved_trace_memory_bytes"]; got <= 0 {
		t.Errorf("vmserved_trace_memory_bytes = %v, want resident bytes", got)
	}
}
