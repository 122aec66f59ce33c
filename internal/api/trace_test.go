package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

func TestTracedExtractsPropagatedTrace(t *testing.T) {
	var got obs.Trace
	h := Traced(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = obs.TraceFrom(r.Context())
		w.WriteHeader(http.StatusNoContent)
	}))
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	InjectTrace(req.Header, obs.Trace{TraceID: "cafecafecafecafe", SpanID: "12ab34cd"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got.TraceID != "cafecafecafecafe" || got.SpanID != "12ab34cd" {
		t.Fatalf("handler context trace %+v", got)
	}
	if rec.Header().Get(HeaderTraceID) != "cafecafecafecafe" {
		t.Fatalf("response header %q", rec.Header().Get(HeaderTraceID))
	}
}

func TestTracedMintsTraceWhenAbsent(t *testing.T) {
	h := Traced(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := obs.TraceFrom(r.Context())
		if !ok || tc.TraceID == "" {
			t.Fatal("no trace minted for unstamped request")
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if len(rec.Header().Get(HeaderTraceID)) != 16 {
		t.Fatalf("minted trace header %q", rec.Header().Get(HeaderTraceID))
	}
}

func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	h := Traced(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such model")
	}))
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	InjectTrace(req.Header, obs.Trace{TraceID: "feedfacefeedface"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if er.Error.TraceID != "feedfacefeedface" {
		t.Fatalf("envelope trace_id %q", er.Error.TraceID)
	}
	// Round-trip through the client decode path too.
	if e := DecodeError(rec.Code, rec.Body.Bytes()); e.TraceID != "feedfacefeedface" {
		t.Fatalf("decoded trace_id %q", e.TraceID)
	}
}

func TestClientDoStampsHeaders(t *testing.T) {
	var gotTrace, gotSpan string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace = r.Header.Get(HeaderTraceID)
		gotSpan = r.Header.Get(HeaderSpanID)
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	}))
	defer srv.Close()

	ctx := obs.ContextWithTrace(context.Background(), obs.Trace{TraceID: "0123456789abcdef", SpanID: "deadbeef"})
	var resp HealthResponse
	if err := NewClient(srv.URL).Do(ctx, http.MethodGet, "/healthz", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if gotTrace != "0123456789abcdef" || gotSpan != "deadbeef" {
		t.Fatalf("server saw trace %q span %q", gotTrace, gotSpan)
	}
}
