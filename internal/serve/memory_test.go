package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"vmopt/internal/disptrace"
)

// TestMemoryTierServing drives the trace cache's memory end to end:
// /v1/run of one workload/variant on three machines misses the result
// LRU each time but shares one cached trace, so request 1 records it
// and keeps the recording in memory, and requests 2 and 3 are served
// from memory with no disk read. Every body must stay byte-identical to the direct
// harness result, and the memory hit must show up in /v1/stats and in
// /metrics.
func TestMemoryTierServing(t *testing.T) {
	_, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})
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

	statsBody, err := fetchOK(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if tr := stats.Traces; tr == nil || tr.Records != 1 || tr.Loads != 2 ||
		tr.MemoryHits != 2 || tr.MemoryBytes <= 0 {
		t.Fatalf("/v1/stats traces block: want 1 record, 2 loads both from memory, and resident bytes: %s", statsBody)
	}

	metricsBody, err := fetchOK(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"vmserved_trace_memory_hits_total",
		"vmserved_trace_memory_evictions_total",
		"vmserved_trace_memory_bytes",
	} {
		if _, ok := metricValue(string(metricsBody), name); !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	if v, _ := metricValue(string(metricsBody), "vmserved_trace_memory_hits_total"); v <= 0 {
		t.Errorf("vmserved_trace_memory_hits_total = %v, want > 0", v)
	}
}

// metricValue returns the value of an unlabelled series in a
// Prometheus text exposition.
func metricValue(text, name string) (float64, bool) {
	for _, l := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(l, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}
