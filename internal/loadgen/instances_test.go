package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// stubInstance serves /metrics with fixed request counters, the way
// one replica of a cluster would.
func stubInstance(t *testing.T, run, sweep uint64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# TYPE vmserved_requests_total counter\n")
		fmt.Fprintf(w, "vmserved_requests_total{endpoint=\"run\"} %d\n", run)
		fmt.Fprintf(w, "vmserved_requests_total{endpoint=\"sweep\"} %d\n", sweep)
		fmt.Fprintf(w, "vmserved_requests_total{endpoint=\"diff\"} 1\n")
		fmt.Fprintf(w, "vmserved_requests_total{endpoint=\"traces\"} 2\n")
		fmt.Fprintf(w, "# TYPE vmserved_rejected_total counter\nvmserved_rejected_total 0\n")
		fmt.Fprintf(w, "# TYPE vmserved_errors_total counter\nvmserved_errors_total 0\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestInstanceViewSumming: with Instances set, the server view is the
// sum over the fleet.
func TestInstanceViewSumming(t *testing.T) {
	a := stubInstance(t, 10, 3)
	b := stubInstance(t, 7, 5)
	ld := &load{
		Runner: &Runner{Addr: "http://router.invalid",
			Instances: []string{a.URL, b.URL}},
		client: http.DefaultClient,
	}
	want := ServerDelta{Run: 17, Sweep: 8, Diff: 2, Traces: 4}
	if sv := ld.serverView(); sv == nil || *sv != want {
		t.Fatalf("serverView = %+v, want %+v", sv, want)
	}
}

// TestInstanceViewDropsOnUnreachable: one dead replica drops the
// cross-check entirely — a partial sum would always disagree with the
// client-side op counts and fail runs spuriously.
func TestInstanceViewDropsOnUnreachable(t *testing.T) {
	a := stubInstance(t, 10, 3)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	ld := &load{
		Runner: &Runner{Addr: "http://router.invalid",
			Instances: []string{a.URL, dead.URL}},
		client: http.DefaultClient,
	}
	if sv := ld.serverView(); sv != nil {
		t.Fatalf("serverView with a dead instance = %+v, want nil", sv)
	}
}

// TestInstanceViewUnsetFallsBack: without Instances the view comes
// from Addr alone, as before clustering existed.
func TestInstanceViewUnsetFallsBack(t *testing.T) {
	a := stubInstance(t, 4, 2)
	ld := &load{Runner: &Runner{Addr: a.URL}, client: http.DefaultClient}
	want := ServerDelta{Run: 4, Sweep: 2, Diff: 1, Traces: 2}
	if sv := ld.serverView(); sv == nil || *sv != want {
		t.Fatalf("serverView = %+v, want %+v", sv, want)
	}
}

// TestRouterTargetHasNoServerDelta: a target whose /metrics carries
// only the router's vmrouter_* series counted no requests of an
// instance, so the report has no server block rather than an all-zero
// one that reads as measured.
func TestRouterTargetHasNoServerDelta(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprintf(w, "# TYPE vmrouter_forwards_total counter\n")
			fmt.Fprintf(w, "vmrouter_forwards_total{instance=\"http://a\"} 12\n")
			fmt.Fprintf(w, "# TYPE vmrouter_retries_total counter\nvmrouter_retries_total 0\n")
			return
		}
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	spec := &Spec{
		Ops:             map[string]float64{OpTraces: 1},
		Workloads:       []string{"gray"},
		Variants:        []string{"plain"},
		ScaleDiv:        50,
		Seed:            1,
		Arrival:         Arrival{Mode: ModeClosed, Workers: 1},
		MeasureRequests: 3,
	}
	report, err := (&Runner{Addr: ts.URL, Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Total.Count != 3 {
		t.Fatalf("measured %d requests, want 3", report.Total.Count)
	}
	if report.Server != nil {
		t.Fatalf("report.Server = %+v from a router-only /metrics, want nil", report.Server)
	}
}
