package api

import "time"

// PredictRequest is the body of POST /v1/predict. Exactly one of Vector
// (single) or Vectors (batch) must be set.
type PredictRequest struct {
	Model   string      `json:"model"`
	Vector  []float64   `json:"vector,omitempty"`
	Vectors [][]float64 `json:"vectors,omitempty"`
}

// PredictResponse is the success body of POST /v1/predict. The field set
// and names are wire-compatible with the pre-envelope server.
type PredictResponse struct {
	Model       string    `json:"model"`
	Predictions []float64 `json:"predictions"`
	// Prediction mirrors Predictions[0] for single-vector requests.
	Prediction *float64 `json:"prediction,omitempty"`
	// CacheHits counts vectors served from the response cache.
	CacheHits int `json:"cache_hits"`
	// Coalesced is always 0, so omitempty keeps it off the wire: the server
	// no longer deduplicates identical in-flight vectors. The field stays
	// only because the benchmark harness reads it, and goes with ROADMAP
	// item 1.
	Coalesced int `json:"coalesced,omitempty"`
}

// ModelInfo is one /v1/models entry: the artifact header, minus the model.
// Circuit and Workload identify the corpus scenario the model was trained
// on, letting clients of a multi-scenario deployment route predictions to
// the right model.
type ModelInfo struct {
	Name        string             `json:"name"`
	Kind        string             `json:"kind"`
	Circuit     string             `json:"circuit,omitempty"`
	Workload    string             `json:"workload,omitempty"`
	NumFeatures int                `json:"num_features"`
	Features    []string           `json:"features"`
	TrainRows   int                `json:"train_rows"`
	TrainHash   string             `json:"train_hash"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	CreatedAt   time.Time          `json:"created_at"`
	// Fingerprint digests the whole artifact (see persist.Artifact
	// Fingerprint); it changes whenever a hot reload swaps the model.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Source is the artifact file the model was loaded from; empty for
	// models registered in-process.
	Source string `json:"source,omitempty"`
}

// ModelsResponse is the success body of GET /v1/models.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// HealthResponse is the success body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Models int    `json:"models"`
	Cached int    `json:"cached"`
}

// ReloadRequest is the body of POST /v1/models/reload. An empty or absent
// Models list reloads every file-backed model.
type ReloadRequest struct {
	Models []string `json:"models,omitempty"`
}

// ReloadEntry reports one model's hot-reload outcome.
type ReloadEntry struct {
	Model string `json:"model"`
	// Path is the artifact file the model was (re)loaded from; empty for
	// in-process registrations, which cannot be reloaded.
	Path string `json:"path,omitempty"`
	// Reloaded reports whether a fresh artifact replaced the served one.
	Reloaded bool `json:"reloaded"`
	// Changed reports whether the fresh artifact differed (by fingerprint)
	// from the one it replaced; an unchanged file reloads as a no-op.
	Changed bool `json:"changed"`
	// Error carries the per-model failure, if any; other models still
	// reload.
	Error string `json:"error,omitempty"`
}

// ReloadResponse is the success body of POST /v1/models/reload.
type ReloadResponse struct {
	Results []ReloadEntry `json:"results"`
	// Reloaded counts entries that reloaded successfully.
	Reloaded int `json:"reloaded"`
}
