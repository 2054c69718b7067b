package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"vmopt/internal/faults"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
)

// timingWriter wraps a ResponseWriter to capture the status code and
// stamp the Server-Timing header at the last possible moment: the
// first WriteHeader (explicit or implied by the first Write). Buffered
// endpoints marshal their body before writing, so every stage — encode
// included — is attributed by then. Streaming endpoints declare
// Server-Timing as a trailer instead, set after the handler returns.
type timingWriter struct {
	http.ResponseWriter
	tr     *obs.Trace
	start  time.Time
	stream bool
	status int
}

func (tw *timingWriter) WriteHeader(code int) {
	if tw.status != 0 {
		return
	}
	tw.status = code
	if !tw.stream {
		tw.Header().Set("Server-Timing", tw.tr.ServerTiming(time.Since(tw.start)))
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *timingWriter) Write(b []byte) (int, error) {
	if tw.status == 0 {
		tw.WriteHeader(http.StatusOK)
	}
	return tw.ResponseWriter.Write(b)
}

// Flush preserves the streaming path: the sweep driver type-asserts its
// writer to http.Flusher to push NDJSON lines as they complete.
func (tw *timingWriter) Flush() {
	if f, ok := tw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint handler with the request observability
// path: the per-endpoint request counter, an obs.Trace on the context
// (so every downstream stage can attribute its time), the
// X-Request-ID echo, the Server-Timing header or trailer, the
// end-to-end latency histogram, the debug recorder and the access
// log. stream marks endpoints that write their body incrementally.
func (s *Server) instrument(endpoint string, reqs *metrics.Counter, lat *metrics.Histogram, stream bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		// A client-announced retry attempt (X-Retry-Attempt > 0) is
		// counted so the operator can see retry pressure server-side,
		// not just in client reports.
		if a := r.Header.Get("X-Retry-Attempt"); a != "" && a != "0" {
			s.stats.retriedRequests.Add(1)
		}
		// X-Cluster-Hop marks a request forwarded by the cluster router
		// (the value is the router's attempt number for this request).
		if r.Header.Get("X-Cluster-Hop") != "" {
			s.stats.forwardedRequests.Add(1)
		}
		id := obs.RequestID(r.Header.Get("X-Request-ID"))
		ctx, tr := obs.NewTrace(r.Context(), endpoint, id)
		w.Header().Set("X-Request-ID", id)
		if stream {
			// Trailers must be declared before the header is flushed;
			// the value is set once the handler has finished writing.
			w.Header().Set("Trailer", "Server-Timing")
		}
		start := time.Now()
		tw := &timingWriter{ResponseWriter: w, tr: tr, start: start, stream: stream}
		// The serve.handler fault site: an injected stall delays the
		// whole request; an injected rejection answers 503 exactly like
		// admission-control backpressure (Retry-After included, counted
		// as rejected) before any work happens.
		s.cfg.Faults.Delay(faults.SiteHandler)
		if s.cfg.Faults.Reject(faults.SiteHandler) {
			s.stats.rejected.Add(1)
			ErrorBody(tw, http.StatusServiceUnavailable, "injected unavailability (fault site %s)", faults.SiteHandler)
		} else {
			h(tw, r.WithContext(ctx))
		}
		elapsed := time.Since(start)
		status := tw.status
		if status == 0 {
			status = http.StatusOK
		}
		if stream {
			w.Header().Set("Server-Timing", tr.ServerTiming(elapsed))
		}
		if status >= 400 {
			tr.SetOutcome(obs.OutcomeError)
		}
		lat.Observe(elapsed)
		tr.Finish(status, elapsed)
		s.recorder.Record(tr)
		if s.cfg.AccessLog != nil {
			s.cfg.AccessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("id", id),
				slog.String("endpoint", endpoint),
				slog.Int("status", status),
				slog.String("outcome", tr.Outcome()),
				slog.Float64("dur_ms", float64(elapsed)/float64(time.Millisecond)),
			)
		}
	}
}
