package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// metrics is the server's observability surface, exported in Prometheus
// text format at /metrics.
type metrics struct {
	requests    *obs.CounterVec // path, code
	latency     *obs.Histogram
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	coalesced   *obs.Counter
	rejected    *obs.Counter
	inflight    *obs.GaugeVec // model
	reloads     *obs.Counter

	// Hardening-advisor families. Plain (unlabeled) families so the
	// exposition carries them from the first scrape, traffic or not.
	hardenRequests *obs.Counter
	hardenSelected *obs.Gauge
	hardenResidual *obs.Gauge
	hardenSeconds  *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests: reg.CounterVec("ffr_serve_requests_total",
			"HTTP requests by path and status code", "path", "code"),
		latency: reg.Histogram("ffr_serve_request_seconds",
			"request latency in seconds", obs.DefBuckets),
		cacheHits: reg.Counter("ffr_serve_cache_hits_total",
			"prediction vectors served from the response cache"),
		cacheMisses: reg.Counter("ffr_serve_cache_misses_total",
			"prediction vectors evaluated by a model"),
		coalesced: reg.Counter("ffr_serve_coalesced_total",
			"prediction vectors deduplicated onto an identical in-flight evaluation"),
		rejected: reg.Counter("ffr_serve_rejected_total",
			"requests rejected with 429 by per-model admission control"),
		inflight: reg.GaugeVec("ffr_serve_inflight_requests",
			"admitted requests currently executing (admission queue depth)", "model"),
		reloads: reg.Counter("ffr_serve_model_reloads_total",
			"artifacts hot-swapped via /v1/models/reload"),
		hardenRequests: reg.Counter("ffr_harden_requests_total",
			"hardening plans computed via /v1/harden"),
		hardenSelected: reg.Gauge("ffr_harden_selected_ffs",
			"flip-flops selected by the most recent hardening plan"),
		hardenResidual: reg.Gauge("ffr_harden_residual_ffr",
			"predicted residual FFR of the most recent hardening plan"),
		hardenSeconds: reg.Histogram("ffr_harden_request_seconds",
			"hardening plan computation latency in seconds", obs.DefBuckets),
	}
}

// statusRecorder captures the response status for request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request counting, latency observation
// and structured request logging, labeled by route pattern (not raw URL,
// to bound cardinality). Successful requests log at debug so production
// logs stay quiet at info; 4xx logs at warn and 5xx at error.
func (m *metrics) instrument(log *slog.Logger, path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		m.latency.Observe(elapsed.Seconds())
		m.requests.With(path, strconv.Itoa(rec.status)).Inc()

		level := slog.LevelDebug
		switch {
		case rec.status >= 500:
			level = slog.LevelError
		case rec.status >= 400:
			level = slog.LevelWarn
		}
		if ctx := r.Context(); log.Enabled(ctx, level) {
			log.Log(ctx, level, "request",
				"method", r.Method,
				"path", path,
				"status", rec.status,
				"seconds", elapsed.Seconds(),
				"trace_id", w.Header().Get(api.HeaderTraceID))
		}
	}
}
