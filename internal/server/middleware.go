package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Request-lifecycle middleware. A node's serving stack is
//
//	withDeadline(Observe(mux))          — every endpoint
//	         └── limitInFlight(handler) — heavy (LD-computing) endpoints
//
// and a coordinator's is Observe(mux). Observe records metrics and
// structured access logs, withDeadline imposes the per-request timeout
// that the kernel drivers honour through context cancellation, and
// limitInFlight sheds load once too many dense-linear-algebra requests
// are already running. Observe sits inside the deadline so that it holds
// the very request the mux routed: the mux stamps the matched pattern on
// the request it was handed, not on copies made above it.

// statusWriter captures the status code and body size for logs/metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// withDeadline bounds each request's handling time: the request context is
// cancelled at the deadline, which the blocked drivers observe at their
// next phase boundary, and the handler answers 504.
func withDeadline(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// inFlightLimiter builds middleware sharing one semaphore: across every
// endpoint it wraps, at most limit requests execute concurrently; beyond
// that requests are shed with 503 + Retry-After: 1, so a traffic spike
// degrades into fast rejections instead of an unbounded queue of n²
// computations. limit <= 0 disables the cap.
func inFlightLimiter(limit int, m *metrics) func(http.Handler) http.Handler {
	if limit <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	sem := make(chan struct{}, limit)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				if m != nil {
					m.inFlight.Add(1)
				}
				defer func() {
					if m != nil {
						m.inFlight.Add(-1)
					}
					<-sem
				}()
				next.ServeHTTP(w, r)
			default:
				if m != nil {
					m.shed.Add(1)
				}
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable,
					"saturated: %d heavy requests already in flight", limit)
			}
		})
	}
}

// Observe wraps a tier's mux with metrics accounting and, when an access
// logger is configured, one structured log line per request. Metrics are
// keyed by the matched route ("/api/ld/region"), never by the raw path:
// whatever no route claims — every 404 — is counted under "other".
func Observe(m *Metrics, logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		route := r.Pattern
		if _, path, ok := strings.Cut(route, " "); ok {
			route = path // "GET /api/ld" → "/api/ld"
		}
		if route == "" || route == "/" {
			route = "other"
		}
		m.requests.Add(route, 1)
		m.statuses.Add(strconv.Itoa(sw.status), 1)
		m.latency.Add(route, int64(elapsed))
		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("query", r.URL.RawQuery),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}
