package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"vmopt/internal/disptrace"
)

// TestHealthAndReadiness covers the probe pair: /healthz never flips,
// /readyz follows SetReady and carries Retry-After while draining.
func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, want 200", path, resp.StatusCode)
		}
	}

	s.SetReady(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 missing Retry-After")
	}

	// Liveness is not readiness: a draining instance is still alive,
	// and still serves real requests (the router drains it; it does
	// not refuse work mid-flight).
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200", resp.StatusCode)
	}
	status, _ := post(t, ts.URL+"/v1/run",
		RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv})
	if status != http.StatusOK {
		t.Fatalf("/v1/run while draining: %d, want 200", status)
	}

	s.SetReady(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", resp.StatusCode)
	}
}

// TestInstanceIdentity checks the two places -instance-id surfaces:
// the X-Served-By response header and the vmserved_instance_info
// gauge, next to the vmserved_ready gauge.
func TestInstanceIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{InstanceID: "vm7:8321"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Served-By"); got != "vm7:8321" {
		t.Fatalf("X-Served-By = %q, want vm7:8321", got)
	}

	series := scrape(t, ts.URL)
	if series[`vmserved_instance_info{instance="vm7:8321"}`] != 1 {
		t.Error("metrics missing vmserved_instance_info gauge")
	}
	if series["vmserved_ready"] != 1 {
		t.Error("vmserved_ready is not 1 on a fresh server")
	}

	// Without an instance ID, neither surface appears.
	_, anon := newTestServer(t, Config{})
	resp, err = http.Get(anon.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Served-By"); got != "" {
		t.Fatalf("anonymous server sent X-Served-By %q", got)
	}
	for key := range scrape(t, anon.URL) {
		if strings.HasPrefix(key, "vmserved_instance_info") {
			t.Errorf("anonymous server exports %s", key)
		}
	}
}

// TestTraceRaw covers the peer-serving endpoint: raw bytes round-trip
// through GET /v1/traces/{id}/raw and decode to the same trace, and
// absences are clean 404s.
func TestTraceRaw(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	_, ts := newTestServer(t, Config{Traces: cache})
	status, _ := post(t, ts.URL+"/v1/run",
		RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv})
	if status != http.StatusOK {
		t.Fatalf("run: %d", status)
	}
	entries, err := cache.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries %d, err %v", len(entries), err)
	}
	id := entries[0].ID

	resp, err := http.Get(ts.URL + "/v1/traces/" + id + "/raw")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw fetch: %d", resp.StatusCode)
	}
	tr, err := disptrace.Decode(raw)
	if err != nil {
		t.Fatalf("raw bytes do not decode: %v", err)
	}
	h := tr.Header
	k := disptrace.Key{Workload: h.Workload, Lang: h.Lang, Variant: h.Variant,
		Technique: h.Technique, Scale: h.Scale, ScaleDiv: h.ScaleDiv,
		MaxSteps: h.MaxSteps, ISAHash: h.ISAHash}
	if got := k.ID(); got != id {
		t.Fatalf("raw trace decodes to %s, want %s", got, id)
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/traces/" + strings.Repeat("0", 64) + "/raw", http.StatusNotFound},
		{"/v1/traces/not-a-valid-id/raw", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestForwardedCounter checks that requests arriving with the
// router's X-Cluster-Hop header are counted as forwarded.
func TestForwardedCounter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(RunRequest{Workload: "gray", Variant: "plain",
		Machine: "celeron-800", ScaleDiv: testScaleDiv})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cluster-Hop", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}

	if got := scrape(t, ts.URL)["vmserved_forwarded_requests_total"]; got != 1 {
		t.Fatalf("vmserved_forwarded_requests_total = %v, want 1", got)
	}
}
