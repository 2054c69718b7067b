package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmopt/internal/disptrace"
	"vmopt/internal/runner"
	"vmopt/internal/serve"
)

// instance is one in-process vmserved: the real serve.Server handler
// on an ephemeral loopback listener, reached through an HTTP client
// capped at nproc connections.
type instance struct {
	srv    *serve.Server
	http   *http.Server
	done   chan error
	base   string
	client *http.Client

	// stages sums the Server-Timing stages of every response, in
	// milliseconds, when collect is set (traced runs only).
	collect bool
	mu      sync.Mutex
	stages  map[string]float64
}

// startInstance serves a fresh default-config server over the trace
// cache directory dir.
func startInstance(dir string) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{Traces: disptrace.NewCache(dir)})
	in := &instance{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc(),
			MaxIdleConnsPerHost: nproc(),
			DisableCompression:  true,
		}},
		stages: map[string]float64{},
	}
	go func() { in.done <- in.http.Serve(ln) }()
	return in, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.http.Shutdown(ctx)
	in.srv.Close()
	in.client.CloseIdleConnections()
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// do sends one request and returns the response body. Any status but
// 200 is an error.
func (in *instance) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, in.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if in.collect {
		// Streaming endpoints send Server-Timing as a trailer, which is
		// only populated once the body has been read.
		st := resp.Trailer.Get("Server-Timing")
		if st == "" {
			st = resp.Header.Get("Server-Timing")
		}
		in.addStages(st)
	}
	return b, nil
}

// addStages adds one Server-Timing value ("name;dur=ms, ...") to the
// per-stage sums.
func (in *instance) addStages(v string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, part := range strings.Split(v, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if ms, err := strconv.ParseFloat(dur, 64); err == nil {
			in.stages[name] += ms
		}
	}
}

// addStages adds this instance's Server-Timing sums to the run's
// serve.<stage>_ms metrics.
func (in *instance) addStagesTo(e *env) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, st := range serverStages {
		e.set("serve."+st+"_ms", e.get("serve."+st+"_ms")+in.stages[st])
	}
}

// serverStages are the Server-Timing stages the per-layer metrics
// report.
var serverStages = []string{"parse", "queue", "flight", "trace_load", "decode", "apply", "compiled", "diff", "encode"}

// scrape reads the server's /metrics and sums each named series over
// its labels.
func (in *instance) scrape() (map[string]float64, error) {
	b, err := in.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// checkRun verifies a /v1/run body against the reference.
func checkRun(ref reference, body []byte) error {
	var r runner.Run
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding run: %w", err)
	}
	return ref.check(r)
}

// checkSweep verifies a /v1/sweep NDJSON body: exactly cells result
// lines, each matching the reference, no error lines, and a summary
// that agrees.
func checkSweep(ref reference, body []byte, cells int) error {
	got := 0
	done := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var l serve.SweepLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("decoding sweep line: %w", err)
		}
		switch {
		case l.Error != "":
			return fmt.Errorf("sweep cell %s/%s/%s failed: %s", l.Workload, l.Variant, l.Machine, l.Error)
		case l.Run != nil:
			if err := ref.check(*l.Run); err != nil {
				return err
			}
			got++
		case l.Done:
			done = true
			if l.Cells != cells || l.Errors != 0 {
				return fmt.Errorf("sweep summary reports %d cells, %d errors; want %d, 0", l.Cells, l.Errors, cells)
			}
		}
	}
	if !done || got != cells {
		return fmt.Errorf("sweep returned %d cells (summary seen: %v); want %d", got, done, cells)
	}
	return nil
}

// mustJSON marshals request bodies built from plain structs and maps,
// which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
