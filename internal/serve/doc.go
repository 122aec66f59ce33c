// Package serve is the FFR prediction service: it loads model artifacts
// (internal/persist) into a hot-reloadable, concurrency-safe Registry and
// serves predictions over HTTP — the paper's
// trained-model-as-reliability-oracle, deployed. Single vectors and
// batches ride the same path: cache lookup first, then parallel evaluation
// of the misses on a server-wide worker pool bounded independently of the
// request count, relying on the ml.Regressor contract that Predict is
// read-only after Fit.
//
// Endpoints (wire types in internal/api; errors travel in the structured
// envelope {"error": {code, message, detail}}):
//
//	POST /v1/predict        {"model": "k-NN", "vector": [...]}            single
//	POST /v1/predict        {"model": "k-NN", "vectors": [[...], ...]}    batch
//	GET  /v1/models         artifact metadata for every loaded model
//	POST /v1/models/reload  hot-swap file-backed artifacts without drain
//	POST /v1/harden         selective-TMR plan for a model and area budget
//	GET  /healthz           liveness + model count
//	GET  /metrics           Prometheus text format (internal/obs)
//
// Two production behaviors harden the predict path. Each model has a
// bounded admission queue; overflow is shed immediately with 429 +
// Retry-After instead of queueing into collapse (TestAdmissionFlood sends
// ten thousand concurrent requests through it). And cache keys include the
// artifact fingerprint, so a hot reload can never serve a stale cached
// prediction — the old entries become unreachable and age out of the LRU.
package serve
