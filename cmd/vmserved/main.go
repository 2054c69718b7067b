// Command vmserved serves the experiment surface of the reproduction
// over HTTP/JSON: any (workload, variant, machine, scale) cell of the
// paper's evaluation on demand, with tiered caching (in-memory LRU
// over the on-disk dispatch-trace cache), coalescing of identical
// concurrent requests, worker-pool backpressure and graceful
// shutdown. See internal/serve for the subsystem and the README
// "Serving API" section for the endpoint reference.
//
// Usage:
//
//	vmserved -addr :8321 -trace-cache .vmtraces
//	vmserved -cache 8192 -jobs 8 -inflight 128 -scalediv 50
//
// Endpoints:
//
//	POST /v1/run          one cell -> runner.Run JSON
//	POST /v1/sweep        grid of cells -> NDJSON stream
//	GET  /v1/traces       on-disk trace cache index
//	GET  /v1/traces/{id}  one trace's metadata
//	GET  /metrics         every server counter (requests, cache tiers,
//	                      coalescing, faults, latency histograms) in
//	                      Prometheus text format
//	GET  /debug/requests  recent and slowest request traces
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 once drain begins)
//
// -debug-addr binds a second listener with pprof alongside /metrics,
// /debug/requests and the probes, so profiling stays off the public
// port. -access-log writes one JSON record per request (request ID,
// endpoint, status, cache outcome, latency) to stderr.
//
// With -trace-cache, every trace loaded from disk, filled from a peer
// or recorded stays decoded in memory under a fixed 16 MiB budget,
// least recently used first out, and later loads of it skip the disk
// read and the decode (see the README "Memory tier" section).
//
// Cluster mode (see internal/cluster and the README "Cluster"
// section):
//
//	vmserved -route http://a:8321,http://b:8321,http://c:8321
//	    run as the router: consistent-hash each request's cell key
//	    across the instances, forward with per-hop deadlines, retry
//	    the next replica when the owner is unavailable
//	vmserved -cluster http://a:8321,... -cluster-self http://a:8321
//	    run as a replica: on a local trace-cache miss, ask a peer for
//	    the trace before simulating (peer fill: the owning peer for a
//	    keyed read, every peer in ring order for a read by ID)
//
// Robustness controls:
//
//	-run-deadline/-sweep-deadline/-diff-deadline  per-endpoint server-side
//	    budgets; a request that exhausts its budget gets 504 with a
//	    machine-readable body and releases its slot
//	-faults spec.json   arm deterministic fault injection (disk
//	    corruption, injected latency, forced 503s; see internal/faults)
//	-scrub              verify every trace-cache file against its content
//	    address, quarantine failures, and exit
//	-read-header-timeout/-idle-timeout  slowloris and idle-connection
//	    guards on both listeners
//	-readyz-drain       grace between flipping /readyz to 503 and closing
//	    listeners, so routers and LBs steer traffic away first
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vmopt/internal/cluster"
	"vmopt/internal/disptrace"
	"vmopt/internal/faults"
	"vmopt/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	traceCache := flag.String("trace-cache", "", "directory for the dispatch-trace cache (tier 3; empty = no disk cache)")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "in-memory result LRU entries (tier 1)")
	jobs := flag.Int("jobs", 0, "worker-pool parallelism per request grid (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", serve.DefaultMaxInFlight, "max concurrently executing run/sweep requests (backpressure; 503 beyond)")
	maxCells := flag.Int("max-cells", serve.DefaultMaxCells, "max cells one sweep may resolve to")
	scaleDiv := flag.Int("scalediv", 1, "default scale divisor for requests that omit scalediv")
	runDeadline := flag.Duration("run-deadline", 0, "server-side deadline for one /v1/run request (504 beyond; 0 = none)")
	sweepDeadline := flag.Duration("sweep-deadline", 0, "server-side deadline for one /v1/sweep request (0 = none)")
	diffDeadline := flag.Duration("diff-deadline", 0, "server-side deadline for one /v1/diff request (0 = none)")
	faultSpec := flag.String("faults", "", "fault-injection spec file (JSON; see internal/faults) armed for the whole process")
	scrub := flag.Bool("scrub", false, "verify every trace-cache file (full decode + content-address check), quarantine failures, and exit")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "per-connection request-header read timeout (slowloris guard)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "keep-alive connection idle timeout")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
	readyzDrain := flag.Duration("readyz-drain", 0, "grace between /readyz flipping to 503 and listeners closing at shutdown")
	debugAddr := flag.String("debug-addr", "", "separate listener for pprof, /metrics, /debug/requests and the probes (empty = none)")
	accessLog := flag.Bool("access-log", false, "write JSON access logs to stderr")
	instanceID := flag.String("instance-id", "", "this instance's identity in a cluster (default host:port of -addr)")
	route := flag.String("route", "", "run as the cluster router over these comma-separated instance base URLs instead of serving locally")
	clusterList := flag.String("cluster", "", "comma-separated base URLs of every cluster instance (enables peer cache fill; requires -cluster-self and -trace-cache)")
	clusterSelf := flag.String("cluster-self", "", "this instance's own base URL within -cluster")
	peerDeadline := flag.Duration("peer-deadline", cluster.DefaultPeerDeadline, "deadline for one peer cache-fill fetch")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per instance on the consistent-hash ring")
	ringSeed := flag.Uint64("ring-seed", 0, "consistent-hash ring seed (must match across router and replicas)")
	hopDeadline := flag.Duration("hop-deadline", cluster.DefaultHopDeadline, "router: deadline for one forwarded attempt")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "router: interval between /readyz probes of each instance")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vmserved: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	if *route != "" {
		instances := splitList(*route)
		if len(instances) == 0 {
			log.Fatalf("vmserved: -route needs at least one instance URL")
		}
		rt := cluster.NewRouter(cluster.RouterConfig{
			Instances:       instances,
			VNodes:          *vnodes,
			Seed:            *ringSeed,
			HopDeadline:     *hopDeadline,
			ProbeInterval:   *probeInterval,
			DefaultScaleDiv: *scaleDiv,
			MaxCells:        *maxCells,
		})
		probeCtx, stopProbes := context.WithCancel(context.Background())
		defer stopProbes()
		rt.StartProbes(probeCtx)
		log.Printf("vmserved: routing for %d instance(s): %s", len(instances), strings.Join(instances, ", "))
		runServer(rt.Handler(), nil, *addr, "", *readHeaderTimeout, *idleTimeout,
			*drainTimeout, *readyzDrain, rt.SetReady, stopProbes)
		return
	}

	cfg := serve.Config{
		CacheSize:       *cacheSize,
		Jobs:            *jobs,
		MaxInFlight:     *inflight,
		MaxCells:        *maxCells,
		DefaultScaleDiv: *scaleDiv,
		RunDeadline:     *runDeadline,
		SweepDeadline:   *sweepDeadline,
		DiffDeadline:    *diffDeadline,
		InstanceID:      *instanceID,
	}
	if cfg.InstanceID == "" {
		cfg.InstanceID = defaultInstanceID(*addr)
	}
	if *traceCache != "" {
		cfg.Traces = disptrace.NewCache(*traceCache)
	}
	if *scrub {
		if cfg.Traces == nil {
			log.Fatalf("vmserved: -scrub needs -trace-cache")
		}
		rep, err := cfg.Traces.Scrub()
		if err != nil {
			log.Fatalf("vmserved: scrub: %v", err)
		}
		log.Printf("vmserved: scrub: %d trace file(s) checked (%d bytes), %d quarantined",
			rep.Checked, rep.Bytes, rep.Quarantined)
		return
	}
	if *faultSpec != "" {
		fs, err := faults.ReadSpecFile(*faultSpec)
		if err != nil {
			log.Fatalf("vmserved: %v", err)
		}
		inj := faults.New(fs)
		cfg.Faults = inj
		if cfg.Traces != nil {
			cfg.Traces.Faults = inj
		}
		log.Printf("vmserved: fault injection armed from %s (%d rule(s))", *faultSpec, len(fs.Faults))
	}
	if *clusterList != "" {
		instances := splitList(*clusterList)
		if *clusterSelf == "" {
			log.Fatalf("vmserved: -cluster needs -cluster-self (this instance's URL within the list)")
		}
		found := false
		for _, in := range instances {
			if in == *clusterSelf {
				found = true
			}
		}
		if !found {
			log.Fatalf("vmserved: -cluster-self %q is not in -cluster %q", *clusterSelf, *clusterList)
		}
		if cfg.Traces == nil {
			log.Printf("vmserved: -cluster without -trace-cache: peer fill disabled (nothing to fill)")
		} else {
			ring := cluster.NewRing(instances, *vnodes, *ringSeed)
			peers := cluster.NewPeerClient(ring, *clusterSelf, *peerDeadline)
			cfg.Traces.Fill = peers.Fill
			log.Printf("vmserved: cluster member %s of %d instance(s); peer fill armed", *clusterSelf, len(instances))
		}
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := serve.New(cfg)

	log.Printf("vmserved: instance %q (trace cache %q, LRU %d, inflight %d)",
		cfg.InstanceID, *traceCache, *cacheSize, *inflight)
	runServer(srv.Handler(), srv.DebugHandler(), *addr, *debugAddr,
		*readHeaderTimeout, *idleTimeout, *drainTimeout, *readyzDrain,
		srv.SetReady, srv.Close)
}

// splitList parses a comma-separated URL list, trimming whitespace
// and trailing slashes (ring membership compares exact strings, so
// normalize the obvious near-misses).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// defaultInstanceID derives an instance identity from the listen
// address: host:port, with the hostname standing in when -addr leaves
// the host empty (":8321" is every replica's address in a container
// fleet; the hostname is what distinguishes them).
func defaultInstanceID(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if hn, err := os.Hostname(); err == nil && hn != "" {
			host = hn
		}
	}
	return net.JoinHostPort(host, port)
}

// runServer owns the listener lifecycle shared by replica and router
// modes: serve until SIGINT/SIGTERM, flip /readyz (setReady) and wait
// the readyz grace so probers steer traffic away, then drain in-flight
// requests and shut everything down (shutdown cancels background
// work: the compute base context for a replica, the prober for the
// router).
func runServer(handler, debugHandler http.Handler, addr, debugAddr string,
	readHeaderTimeout, idleTimeout, drainTimeout, readyzDrain time.Duration,
	setReady func(bool), shutdown func()) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("vmserved: %v", err)
	}
	log.Printf("vmserved: listening on %s", ln.Addr())

	var debugSrv *http.Server
	if debugAddr != "" && debugHandler != nil {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			log.Fatalf("vmserved: debug listener: %v", err)
		}
		debugSrv = &http.Server{
			Handler:           debugHandler,
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
		}
		log.Printf("vmserved: debug listener on %s (pprof, /metrics, /debug/requests, probes)", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("vmserved: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("vmserved: %v", err)
	case <-ctx.Done():
	}
	stop()

	// Flip readiness before anything closes: probers (the router, an
	// LB) see the 503 and steer new traffic away while the listeners
	// are still accepting, so nobody eats a connection reset. The
	// grace below gives them a probe cycle to notice.
	setReady(false)
	if readyzDrain > 0 {
		log.Printf("vmserved: /readyz now 503; waiting %s before closing listeners", readyzDrain)
		time.Sleep(readyzDrain)
	}
	log.Printf("vmserved: shutting down (draining up to %s)", drainTimeout)

	// Drain in-flight requests first, then cancel background work so
	// any stragglers stop at the next cell boundary.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vmserved: shutdown: %v", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	shutdown()
	log.Printf("vmserved: bye")
}
