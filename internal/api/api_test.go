package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// mustJSON marshals v and compares against the exact expected wire bytes.
// These are schema regression tests: a failing case means the wire format
// changed and every deployed client would see it.
func mustJSON(t *testing.T, v any, want string) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("wire schema changed:\n got %s\nwant %s", b, want)
	}
}

func TestPredictWireSchema(t *testing.T) {
	one := 0.5
	// Single-vector success payload: field set and names are pinned to the
	// pre-envelope server's wire format.
	mustJSON(t, PredictResponse{Model: "k-NN", Predictions: []float64{0.5}, Prediction: &one, CacheHits: 1},
		`{"model":"k-NN","predictions":[0.5],"prediction":0.5,"cache_hits":1}`)
	// Batch payload omits the single-vector mirror and the additive
	// coalesced field stays invisible when zero.
	mustJSON(t, PredictResponse{Model: "m", Predictions: []float64{1, 2}, CacheHits: 0},
		`{"model":"m","predictions":[1,2],"cache_hits":0}`)
	mustJSON(t, PredictResponse{Model: "m", Predictions: []float64{1}, CacheHits: 0, Coalesced: 3},
		`{"model":"m","predictions":[1],"cache_hits":0,"coalesced":3}`)
	mustJSON(t, PredictRequest{Model: "m", Vector: []float64{1, 2}},
		`{"model":"m","vector":[1,2]}`)
	mustJSON(t, PredictRequest{Model: "m", Vectors: [][]float64{{1}, {2}}},
		`{"model":"m","vectors":[[1],[2]]}`)
}

func TestModelsWireSchema(t *testing.T) {
	at := time.Date(2026, 8, 7, 1, 2, 3, 0, time.UTC)
	info := ModelInfo{
		Name: "k-NN", Kind: "pipeline[std,knn]",
		Circuit: "alupipe", Workload: "randomops",
		NumFeatures: 2, Features: []string{"f0", "f1"},
		TrainRows: 10, TrainHash: "ff01",
		Metrics:   map[string]float64{"R2": 0.5},
		CreatedAt: at,
	}
	mustJSON(t, ModelsResponse{Models: []ModelInfo{info}},
		`{"models":[{"name":"k-NN","kind":"pipeline[std,knn]","circuit":"alupipe","workload":"randomops",`+
			`"num_features":2,"features":["f0","f1"],"train_rows":10,"train_hash":"ff01",`+
			`"metrics":{"R2":0.5},"created_at":"2026-08-07T01:02:03Z"}]}`)
	// Untagged models must omit the scenario keys entirely (additive,
	// backward-compatible schema) and the new fingerprint/source keys only
	// appear when set.
	info.Circuit, info.Workload, info.Metrics = "", "", nil
	info.Fingerprint, info.Source = "abcd", "/tmp/knn.ffrm"
	mustJSON(t, ModelsResponse{Models: []ModelInfo{info}},
		`{"models":[{"name":"k-NN","kind":"pipeline[std,knn]",`+
			`"num_features":2,"features":["f0","f1"],"train_rows":10,"train_hash":"ff01",`+
			`"created_at":"2026-08-07T01:02:03Z","fingerprint":"abcd","source":"/tmp/knn.ffrm"}]}`)
}

func TestHealthAndErrorWireSchema(t *testing.T) {
	mustJSON(t, HealthResponse{Status: "ok", Models: 2, Cached: 7},
		`{"status":"ok","models":2,"cached":7}`)
	mustJSON(t, ErrorResponse{Error: &Error{Code: CodeNotFound, Message: `unknown model "x"`}},
		`{"error":{"code":"not_found","message":"unknown model \"x\""}}`)
	mustJSON(t, ErrorResponse{Error: &Error{Code: CodeBadRequest, Message: "m", Detail: "d"}},
		`{"error":{"code":"bad_request","message":"m","detail":"d"}}`)
}

func TestReloadWireSchema(t *testing.T) {
	mustJSON(t, ReloadResponse{
		Results:  []ReloadEntry{{Model: "m", Path: "p", Reloaded: true, Changed: true}},
		Reloaded: 1,
	}, `{"results":[{"model":"m","path":"p","reloaded":true,"changed":true}],"reloaded":1}`)
	mustJSON(t, ReloadEntry{Model: "m", Error: "boom"},
		`{"model":"m","reloaded":false,"changed":false,"error":"boom"}`)
}

func TestFabricWireSchema(t *testing.T) {
	mustJSON(t, LeaseResponse{Chunks: []int{3, 4}, Stolen: 1},
		`{"chunks":[3,4],"stolen":1}`)
	mustJSON(t, LeaseResponse{Done: true}, `{"done":true}`)
	mustJSON(t, LeaseResponse{RetryMillis: 250}, `{"retry_millis":250}`)
	mustJSON(t, CompleteRequest{Worker: "w1", Chunk: 2, PlanHash: "aa", Masks: []string{"ffffffffffffffff", "0"}},
		`{"worker":"w1","chunk":2,"plan_hash":"aa","masks":["ffffffffffffffff","0"]}`)
	mustJSON(t, HeartbeatResponse{Canceled: []int{1}}, `{"canceled":[1]}`)
}

func TestMaskEncodingRoundTrip(t *testing.T) {
	in := []uint64{0, 1, math.MaxUint64, 1 << 53, 0xdeadbeefcafef00d}
	out, err := DecodeMasks(EncodeMasks(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("mask %d: %x != %x", i, out[i], in[i])
		}
	}
	if _, err := DecodeMasks([]string{"zz"}); err == nil {
		t.Fatal("bad hex mask accepted")
	}
	// The whole point of hex masks: a raw-number JSON encoding round-trips
	// through float64 and corrupts the low bits of large masks.
	var viaNumber uint64
	b, _ := json.Marshal(float64(uint64(math.MaxUint64)))
	if json.Unmarshal(b, &viaNumber) == nil && viaNumber == math.MaxUint64 {
		t.Fatal("sanity: JSON numbers should not carry MaxUint64 exactly")
	}
}

func TestWriteAndDecodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, CodeNotFound, "unknown model %q", "x")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
	e := DecodeError(rec.Code, rec.Body.Bytes())
	if e.Code != CodeNotFound || e.Status != http.StatusNotFound {
		t.Fatalf("decoded %+v", e)
	}
	if e.Message != `unknown model "x"` {
		t.Fatalf("message %q", e.Message)
	}
	// Non-envelope bodies degrade instead of failing.
	e = DecodeError(http.StatusBadGateway, []byte("<html>proxy error</html>"))
	if e.Code != CodeInternal || e.Status != http.StatusBadGateway {
		t.Fatalf("degraded decode %+v", e)
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses must not leave a
// committed 200 with an empty body behind; it becomes a 500 envelope.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, PredictResponse{Model: "m", Predictions: []float64{math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
	if e := DecodeError(rec.Code, rec.Body.Bytes()); e.Code != CodeInternal || e.Message == "" {
		t.Fatalf("decoded %+v from %q", e, rec.Body.String())
	}
}

func TestWriteOverloaded(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteOverloaded(rec, "queue full")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
	if e := DecodeError(rec.Code, rec.Body.Bytes()); e.Code != CodeOverloaded {
		t.Fatalf("code %q", e.Code)
	}
}

func TestClientRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		var req PredictRequest
		if err := ReadJSON(r, w, 1<<20, &req); err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad body: %v", err)
			return
		}
		if req.Model == "missing" {
			WriteError(w, http.StatusNotFound, CodeNotFound, "unknown model %q", req.Model)
			return
		}
		WriteJSON(w, http.StatusOK, PredictResponse{Model: req.Model, Predictions: []float64{42}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewClient(ts.URL + "/")
	resp, err := c.Predict(PredictRequest{Model: "m", Vector: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Predictions[0] != 42 {
		t.Fatalf("predictions %v", resp.Predictions)
	}
	_, err = c.Predict(PredictRequest{Model: "missing", Vector: []float64{1}})
	var apiErr *Error
	if !errorsAs(err, &apiErr) || apiErr.Code != CodeNotFound || apiErr.Status != http.StatusNotFound {
		t.Fatalf("error %v not a typed envelope", err)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}
