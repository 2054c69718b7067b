package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// reply is how a scripted instance answers one request.
type reply func(w http.ResponseWriter, r *http.Request)

func status(code int) reply {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(code)
		fmt.Fprintf(w, "status %d\n", code)
	}
}

// hangup aborts the connection: the router sees a transport error.
func hangup(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }

// subSweep answers a one-cell sub-sweep whose done line reports errs
// errored cells.
func subSweep(errs int) reply {
	return func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "{\"workload\":\"gray\",\"variant\":\"plain\",\"machine\":\"celeron-800\",\"error\":\"e%d\"}\n", errs)
		fmt.Fprintf(w, "{\"done\":true,\"cells\":1,\"groups\":1,\"errors\":%d}\n", errs)
	}
}

// scripted stands up n instances whose answers a test sets per
// request key: replies[k] is how the k-th candidate for that key
// answers.
type scripted struct {
	mu      sync.Mutex
	urls    []string
	replies map[string]reply
}

func newScripted(t *testing.T, n int) *scripted {
	t.Helper()
	s := &scripted{replies: map[string]reply{}}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		url := "http://" + ts.Listener.Addr().String()
		ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.mu.Lock()
			h := s.replies[url]
			s.mu.Unlock()
			h(w, r)
		})
		ts.Start()
		t.Cleanup(ts.Close)
		s.urls = append(s.urls, url)
	}
	return s
}

// router returns a fresh router over the instances, with the k-th
// candidate for key answering replies[k].
func (s *scripted) router(key string, replies ...reply) *Router {
	rt := NewRouter(RouterConfig{Instances: s.urls})
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, inst := range rt.candidates(key) {
		s.replies[inst] = replies[k]
	}
	return rt
}

// TestForwardRules pins the one forwarding loop every routed endpoint
// shares: each endpoint's acceptance rule, which answer is relayed when
// none is accepted, and that retries count every attempt beyond the
// first while a routing failure means no instance answered.
func TestForwardRules(t *testing.T) {
	s := newScripted(t, 3)
	const (
		runBody   = `{"workload":"gray","variant":"plain","machine":"celeron-800","scalediv":400}`
		diffBody  = `{"a":"ta","b":"tb"}`
		sweepBody = `{"workloads":["gray"],"variants":["plain"],"machines":["celeron-800"],"scalediv":400}`
	)
	cell := CellKey("gray", "plain", 400)
	for _, tc := range []struct {
		name, method, path, body, key string
		replies                       []reply
		wantStatus                    int
		wantBody                      string // substring
		wantHop                       int    // X-Cluster-Hop of a relayed answer; 0: none
		retries, failures             uint64
	}{
		{"run past a 503", "POST", "/v1/run", runBody, cell,
			[]reply{status(503), status(200), status(200)}, 200, "status 200", 2, 1, 0},
		{"run relays the last 5xx", "POST", "/v1/run", runBody, cell,
			[]reply{status(503), status(500), status(503)}, 503, "status 503", 3, 2, 0},
		{"run with no answer", "POST", "/v1/run", runBody, cell,
			[]reply{hangup, hangup, hangup}, 503, `"cluster unavailable: no instance answered: `, 0, 2, 1},
		{"diff takes a 4xx", "POST", "/v1/diff", diffBody, "diff|ta|tb",
			[]reply{hangup, status(400), status(200)}, 400, "status 400", 2, 1, 0},
		{"trace past a 404", "GET", "/v1/traces/t1", "", "t1",
			[]reply{status(404), status(503), status(200)}, 200, "status 200", 3, 2, 0},
		{"trace relays the last 404", "GET", "/v1/traces/t1/raw", "", "t1",
			[]reply{status(404), status(404), status(404)}, 404, "status 404", 3, 2, 0},
		{"trace with no answer", "GET", "/v1/traces/t1", "", "t1",
			[]reply{hangup, hangup, hangup}, 503, `{"error":"cluster unavailable: no instance answered"}`, 0, 2, 1},
		{"sweep past errored cells", "POST", "/v1/sweep", sweepBody, cell,
			[]reply{subSweep(1), subSweep(0), subSweep(0)}, 200, `"error":"e0"`, 0, 1, 0},
		{"sweep refused everywhere", "POST", "/v1/sweep", sweepBody, cell,
			[]reply{status(503), subSweep(1), hangup}, 200, `"error":"no instance completed group: `, 0, 2, 0},
		{"sweep with no answer", "POST", "/v1/sweep", sweepBody, cell,
			[]reply{hangup, hangup, hangup}, 200, `"error":"no instance completed group: `, 0, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := s.router(tc.key, tc.replies...)
			front := httptest.NewServer(rt.Handler())
			defer front.Close()
			req, err := http.NewRequest(tc.method, front.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus || !strings.Contains(string(b), tc.wantBody) {
				t.Errorf("got %d %q, want %d containing %q", resp.StatusCode, b, tc.wantStatus, tc.wantBody)
			}
			if tc.wantHop > 0 {
				if hop, want := resp.Header.Get("X-Cluster-Hop"), fmt.Sprint(tc.wantHop); hop != want {
					t.Errorf("X-Cluster-Hop = %s, want %s", hop, want)
				}
			}
			if got := rt.retries.Load(); got != tc.retries {
				t.Errorf("retries = %d, want %d", got, tc.retries)
			}
			if got := rt.failures.Load(); got != tc.failures {
				t.Errorf("routing failures = %d, want %d", got, tc.failures)
			}
		})
	}
}

// TestForwardStopsWhenContextDone: once the request's context is done,
// a transport error ends the walk instead of trying further candidates.
func TestForwardStopsWhenContextDone(t *testing.T) {
	s := newScripted(t, 3)
	rt := s.router("k", status(200), status(200), status(200))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	u, err := rt.forward(ctx, nil, "k", http.MethodGet, "/v1/traces/k", nil, answered)
	if u != nil || err == nil {
		t.Fatalf("forward under a done context = %v, %v; want no answer and an error", u, err)
	}
	var attempts uint64
	for _, inst := range s.urls {
		attempts += rt.forwards.With(inst).Load()
	}
	if attempts != 1 || rt.retries.Load() != 0 || rt.failures.Load() != 1 {
		t.Errorf("attempts %d, retries %d, failures %d; want 1, 0, 1",
			attempts, rt.retries.Load(), rt.failures.Load())
	}
}
