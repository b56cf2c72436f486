package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"cfsmdiag/internal/obs"
)

// HTTP metric families. Routes are labeled with the registered pattern (not
// the raw URL) so cardinality stays bounded.
const (
	metricHTTPRequests = "cfsmdiag_http_requests_total"
	metricHTTPLatency  = "cfsmdiag_http_request_duration_seconds"
	metricHTTPInFlight = "cfsmdiag_http_in_flight_requests"
	metricHTTPPanics   = "cfsmdiag_http_panics_total"
)

type httpMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge
	panics   *obs.Counter
}

func newHTTPMetrics(r *obs.Registry) httpMetrics {
	return httpMetrics{
		reg:      r,
		inFlight: r.Gauge(metricHTTPInFlight, "HTTP requests currently being served."),
		panics:   r.Counter(metricHTTPPanics, "HTTP handlers recovered from a panic."),
	}
}

func (m httpMetrics) observe(route, method string, status int, elapsed time.Duration) {
	labels := []obs.Label{
		obs.L("route", route),
		obs.L("method", method),
		obs.L("status", strconv.Itoa(status)),
	}
	m.reg.Counter(metricHTTPRequests, "HTTP requests served, by route, method and status.", labels...).Inc()
	m.reg.Histogram(metricHTTPLatency, "HTTP request latency in seconds, by route, method and status.",
		obs.DefaultLatencyBuckets, labels...).Observe(elapsed.Seconds())
}

// statusRecorder captures the status code written by a handler so the access
// log and metrics can label it. Unwrap keeps http.ResponseController happy.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

type ctxKey int

const requestIDKey ctxKey = 0

// RequestID returns the request's ID, set by the server middleware; callers
// outside a request see "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// wrap is the middleware chain applied to every route, outermost first:
// panic recovery, request ID, in-flight gauge, per-request timeout, then
// metrics + access log on the way out.
func (s *api) wrap(route string, h http.HandlerFunc) http.Handler {
	return s.wrapWith(route, h, true)
}

// wrapStream is wrap without the per-request timeout: lifecycle-event
// streams (SSE, long-poll) are deliberately long-lived, so bounding them by
// RequestTimeout would sever every watcher mid-stream. The client's
// disconnect still cancels the request context, and the handlers bound
// themselves (long-poll caps its wait, SSE ends at the terminal event).
func (s *api) wrapStream(route string, h http.HandlerFunc) http.Handler {
	return s.wrapWith(route, h, false)
}

func (s *api) wrapWith(route string, h http.HandlerFunc, withTimeout bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, reqID))

		if withTimeout && s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}

		sr := &statusRecorder{ResponseWriter: w}
		s.m.inFlight.Inc()
		defer func() {
			s.m.inFlight.Dec()
			if rec := recover(); rec != nil {
				s.m.panics.Inc()
				s.cfg.Logger.Error("panic in handler",
					"route", route, "request_id", reqID,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if sr.status == 0 {
					writeErr(sr, http.StatusInternalServerError, codeInternal,
						fmt.Errorf("internal error; request id %s", reqID))
				}
			}
			status := sr.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			s.m.observe(route, r.Method, status, elapsed)
			s.cfg.Logger.Info("request",
				"request_id", reqID,
				"method", r.Method,
				"route", route,
				"path", r.URL.Path,
				"status", status,
				"bytes", sr.bytes,
				"duration_ms", elapsed.Milliseconds(),
				"remote", r.RemoteAddr)
		}()
		h(sr, r)
	})
}
