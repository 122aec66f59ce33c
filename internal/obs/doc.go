// Package obs is the repository's dependency-free telemetry core: what the
// toolchain does not ship. Log records are log/slog's; this package adds
// only Component, which scopes an optional logger (nil means silent).
//
//   - Metrics: Prometheus-style counters, gauges and histograms behind a
//     Registry that exposes them in the Prometheus text format (version
//     0.0.4) at /metrics. The prediction service, the campaign fabric and
//     the campaign engine register their families here — request latency
//     histograms, cache hit counters, lease-churn counters, per-chunk wall
//     time, simulated-vs-replay cycle counters — so a fleet can be scraped
//     by stock monitoring tooling without a client_golang dependency.
//   - Tracing: lightweight trace/span identifiers (Trace, Span) carried in
//     contexts, propagated as HTTP headers by internal/api, and journaled
//     by a Tracer as JSONL span records — convertible to the Chrome
//     trace-event format (WriteChromeTrace) for chrome://tracing and
//     Perfetto — so one prediction or one leased chunk is followable
//     across ffr serve, ffr coord and ffr work.
//
// The implementation favors hot-path cheapness: counters and gauges are a
// single atomic word, histograms one atomic word per bucket, label lookup
// is a read-locked map hit. Metric families are created once at
// construction (Counter, CounterVec, Gauge, Histogram) and used lock-free
// afterwards.
//
// ServeDebug is the shared -metrics-addr debug listener: /metrics plus
// net/http/pprof, so a campaign can be profiled mid-run.
package obs
