package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Stable error codes of the common envelope. Clients match on these, never
// on message text.
const (
	// CodeBadRequest marks malformed or invalid request payloads.
	CodeBadRequest = "bad_request"
	// CodeNotFound marks references to unknown resources (models, chunks).
	CodeNotFound = "not_found"
	// CodeOverloaded marks admission-control rejections; the response
	// carries a Retry-After header.
	CodeOverloaded = "overloaded"
	// CodeUnavailable marks a service that cannot serve yet (no models
	// loaded, campaign not started).
	CodeUnavailable = "unavailable"
	// CodeConflict marks requests that contradict server state (foreign
	// campaign fingerprints, duplicate registrations).
	CodeConflict = "conflict"
	// CodeInternal marks server-side failures.
	CodeInternal = "internal"
)

// Error is the common error envelope carried by every non-2xx response.
// It implements the error interface so clients can return it directly.
type Error struct {
	// Code is a stable machine-matchable identifier (Code* constants).
	Code string `json:"code"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Detail optionally carries additional context (offending field,
	// expected value).
	Detail string `json:"detail,omitempty"`
	// TraceID correlates the failure with server-side structured logs and
	// span journals. Filled by WriteError when the Traced middleware has
	// stamped the request.
	TraceID string `json:"trace_id,omitempty"`
	// Status is the HTTP status the envelope traveled under; clients fill
	// it on decode. It is not part of the wire format.
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s (%s)", e.Code, e.Message, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorResponse is the wire shape of a failed request: the envelope under
// an "error" key, mirroring the pre-envelope servers' {"error": ...} layout
// so clients keep finding failures in the same place.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// WriteJSON writes v as the JSON response body with the given status. It
// encodes before it commits the status, so a value JSON cannot carry (a NaN
// or an infinity) is answered with a 500 internal envelope, not a status
// with no body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "encoding the response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n')) // the status is sent: a failed write has no one left to tell
}

// WriteError writes the common error envelope with the given status and
// code. When the Traced middleware handled the request, the trace ID it
// stamped onto the response headers is echoed into the envelope so a
// client-reported failure can be matched to server logs.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: &Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		TraceID: w.Header().Get(HeaderTraceID),
		Status:  status,
	}})
}

// WriteOverloaded writes a 429 rejection with a Retry-After hint of 1 s:
// the shortest that does not invite an immediate, equally doomed retry.
func WriteOverloaded(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusTooManyRequests, CodeOverloaded, format, args...)
}

// DecodeError extracts the error envelope from a failed response body. It
// always returns a non-nil *Error: bodies that are not envelopes (proxies,
// panics) degrade to a CodeInternal envelope quoting the raw body.
func DecodeError(status int, body []byte) *Error {
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != nil && er.Error.Code != "" {
		er.Error.Status = status
		return er.Error
	}
	msg := string(body)
	if len(msg) > 256 {
		msg = msg[:256] + "..."
	}
	return &Error{Code: CodeInternal, Message: fmt.Sprintf("http %d: %s", status, msg), Status: status}
}

// ReadJSON decodes a request body into v, bounding the body size.
func ReadJSON(r *http.Request, w http.ResponseWriter, maxBytes int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	return json.NewDecoder(r.Body).Decode(v)
}

// drainBody reads at most n bytes of a response body, for error envelopes.
func drainBody(r io.Reader, n int64) []byte {
	b, _ := io.ReadAll(io.LimitReader(r, n))
	return b
}
