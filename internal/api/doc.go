// Package api defines the unified, versioned wire surface of the FFR
// services: the request/response types of every /v1 endpoint, the common
// error envelope, and the HTTP client helpers that speak them.
//
// Every HTTP-facing component — the prediction service (internal/serve,
// ffr serve) and the distributed campaign fabric (internal/fabric,
// ffr coord, ffr work) — shares these types instead of declaring
// per-handler structs, so the wire format is defined exactly once and
// pinned by the schema regression tests in this package.
//
// Errors travel in one envelope on every endpoint:
//
//	{"error": {"code": "not_found", "message": "unknown model \"x\""}}
//
// The code is a stable, machine-matchable string (see the Code* constants);
// the message is human-readable; detail optionally carries context. Success
// payloads are wire-compatible with the pre-envelope servers: existing
// fields keep their names and types, new fields are additive and omitempty.
package api
