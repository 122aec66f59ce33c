package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/persist"
)

// syntheticArtifact trains a small pipeline on a deterministic synthetic
// problem and wraps it as an artifact.
func syntheticArtifact(t testing.TB, name string, model ml.Regressor) *persist.Artifact {
	t.Helper()
	return syntheticArtifactSeed(t, name, model, 7)
}

// syntheticArtifactSeed varies the training data, producing artifacts that
// predict differently — the raw material for reload tests.
func syntheticArtifactSeed(t testing.TB, name string, model ml.Regressor, seed int64) *persist.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, 120)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64() * 4, rng.Float64() * 10}
		y[i] = X[i][0] + 2*X[i][1] - 0.3*X[i][2]
	}
	p := &ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: model}
	if err := p.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	a := persist.New(name, p, []string{"f0", "f1", "f2"})
	a.TrainRows = len(X)
	a.TrainHash = persist.DataFingerprint(X, y)
	return a
}

func testServer(t testing.TB, cfg Config) (*Server, *persist.Artifact) {
	t.Helper()
	s := New(cfg)
	knnArt := syntheticArtifact(t, "k-NN", knn.New(3))
	if err := s.reg.add(knnArt, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.add(syntheticArtifact(t, "Linear Least Squares", linreg.NewRidge(0)), ""); err != nil {
		t.Fatal(err)
	}
	return s, knnArt
}

func postPredict(t testing.TB, h http.Handler, body string) (*httptest.ResponseRecorder, api.PredictResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp api.PredictResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response body %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

// decodeEnvelope parses the common error envelope of a failed response.
func decodeEnvelope(t testing.TB, rec *httptest.ResponseRecorder) *api.Error {
	t.Helper()
	var er api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil {
		t.Fatalf("error body is not an envelope: %q", rec.Body.String())
	}
	return er.Error
}

func TestPredictSingle(t *testing.T) {
	s, art := testServer(t, Config{})
	h := s.Handler()
	x := []float64{0.5, 1.5, 3}
	want := art.Model.Predict(x)

	body := fmt.Sprintf(`{"model":"k-NN","vector":[%g,%g,%g]}`, x[0], x[1], x[2])
	rec, resp := postPredict(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Predictions) != 1 || resp.Predictions[0] != want {
		t.Fatalf("predictions %v, want [%v]", resp.Predictions, want)
	}
	if resp.Prediction == nil || *resp.Prediction != want {
		t.Fatalf("single-vector response missing prediction field")
	}
	if resp.CacheHits != 0 {
		t.Fatalf("first request reported %d cache hits", resp.CacheHits)
	}

	// The identical vector is now served from the LRU cache.
	rec, resp = postPredict(t, h, body)
	if rec.Code != http.StatusOK || resp.CacheHits != 1 {
		t.Fatalf("repeat request: status %d, cache hits %d, want 200/1", rec.Code, resp.CacheHits)
	}
	if resp.Predictions[0] != want {
		t.Fatalf("cached prediction %v, want %v", resp.Predictions[0], want)
	}
}

func TestPredictBatch(t *testing.T) {
	s, art := testServer(t, Config{Workers: 4})
	h := s.Handler()
	rng := rand.New(rand.NewSource(11))
	X := make([][]float64, 40)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	want := ml.PredictAll(art.Model, X)

	body, _ := json.Marshal(api.PredictRequest{Model: "k-NN", Vectors: X})
	rec, resp := postPredict(t, h, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Predictions) != len(X) {
		t.Fatalf("%d predictions for %d vectors", len(resp.Predictions), len(X))
	}
	for i := range want {
		if resp.Predictions[i] != want[i] {
			t.Fatalf("vector %d: got %v, want %v", i, resp.Predictions[i], want[i])
		}
	}
	if resp.Prediction != nil {
		t.Fatal("batch response carries single-vector prediction field")
	}
}

func TestPredictValidation(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantAPI  string
		wantMsg  string
	}{
		{"bad json", `{"model":`, http.StatusBadRequest, api.CodeBadRequest, "bad request body"},
		{"missing model", `{"vector":[1,2,3]}`, http.StatusBadRequest, api.CodeBadRequest, "missing model"},
		{"unknown model", `{"model":"nope","vector":[1,2,3]}`, http.StatusNotFound, api.CodeNotFound, `unknown model "nope"`},
		{"neither input", `{"model":"k-NN"}`, http.StatusBadRequest, api.CodeBadRequest, "exactly one of"},
		{"both inputs", `{"model":"k-NN","vector":[1,2,3],"vectors":[[1,2,3]]}`, http.StatusBadRequest, api.CodeBadRequest, "exactly one of"},
		{"empty batch", `{"model":"k-NN","vectors":[]}`, http.StatusBadRequest, api.CodeBadRequest, "empty batch"},
		{"narrow vector", `{"model":"k-NN","vector":[1,2]}`, http.StatusBadRequest, api.CodeBadRequest, "wants 3"},
		{"ragged batch", `{"model":"k-NN","vectors":[[1,2,3],[1,2,3,4]]}`, http.StatusBadRequest, api.CodeBadRequest, "vector 1"},
		// Valid JSON, but k-NN finds every neighbour at +Inf and predicts NaN.
		{"overflowing vector", `{"model":"k-NN","vector":[1e308,1e308,1e308]}`, http.StatusBadRequest, api.CodeBadRequest, "vector 0"},
		{"overflowing batch", `{"model":"k-NN","vectors":[[1,2,3],[-1e308,-1e308,-1e308]]}`, http.StatusBadRequest, api.CodeBadRequest, "vector 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, _ := postPredict(t, h, c.body)
			if rec.Code != c.wantCode {
				t.Fatalf("status %d, want %d (%s)", rec.Code, c.wantCode, rec.Body.String())
			}
			er := decodeEnvelope(t, rec)
			if er.Code != c.wantAPI {
				t.Fatalf("code %q, want %q", er.Code, c.wantAPI)
			}
			if !strings.Contains(er.Message, c.wantMsg) {
				t.Fatalf("message %q does not mention %q", er.Message, c.wantMsg)
			}
		})
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict: status %d, want 405", rec.Code)
	}
}

func TestModelsEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp api.ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 2 {
		t.Fatalf("%d models listed, want 2", len(resp.Models))
	}
	if resp.Models[0].Name != "k-NN" || resp.Models[1].Name != "Linear Least Squares" {
		t.Fatalf("listing order %q, %q not registration order", resp.Models[0].Name, resp.Models[1].Name)
	}
	if resp.Models[0].Kind != "pipeline[std,knn]" || resp.Models[0].NumFeatures != 3 {
		t.Fatalf("k-NN metadata: kind %q, features %d", resp.Models[0].Kind, resp.Models[0].NumFeatures)
	}
	if resp.Models[0].Fingerprint == "" {
		t.Fatal("listing missing artifact fingerprint")
	}
}

func TestHealthz(t *testing.T) {
	empty := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	empty.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty server healthz: status %d, want 503", rec.Code)
	}
	if er := decodeEnvelope(t, rec); er.Code != api.CodeUnavailable {
		t.Fatalf("empty server healthz code %q, want %q", er.Code, api.CodeUnavailable)
	}
	if err := empty.Ready(); err == nil {
		t.Fatal("empty server reports ready")
	}

	s, _ := testServer(t, Config{})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("loaded server healthz: status %d, want 200", rec.Code)
	}
	if err := s.Ready(); err != nil {
		t.Fatalf("loaded server not ready: %v", err)
	}
}

// TestConcurrentBatchPredict drives 64 concurrent batch requests through a
// real HTTP stack; combined with `go test -race` this pins the concurrency
// contract end to end: shared models, shared cache, shared worker pool,
// zero failures.
func TestConcurrentBatchPredict(t *testing.T) {
	s, art := testServer(t, Config{Workers: 8, CacheSize: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	const perBatch = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c % 8))) // overlapping seeds exercise the cache
			X := make([][]float64, perBatch)
			for i := range X {
				X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			}
			body, _ := json.Marshal(api.PredictRequest{Model: "k-NN", Vectors: X})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
				return
			}
			var pr api.PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				errs <- fmt.Errorf("client %d: decoding: %w", c, err)
				return
			}
			if len(pr.Predictions) != perBatch {
				errs <- fmt.Errorf("client %d: %d predictions", c, len(pr.Predictions))
				return
			}
			for i, x := range X {
				if want := art.Model.Predict(x); pr.Predictions[i] != want {
					errs <- fmt.Errorf("client %d vector %d: got %v, want %v", c, i, pr.Predictions[i], want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLoadArtifactAndDuplicates(t *testing.T) {
	art := syntheticArtifact(t, "k-NN", knn.New(3))
	path := filepath.Join(t.TempDir(), "knn.ffrm")
	if err := persist.Save(path, art); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	loaded, err := s.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "k-NN" || s.NumModels() != 1 {
		t.Fatalf("loaded %q, %d models", loaded.Name, s.NumModels())
	}
	if _, err := s.LoadArtifact(path); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	if err := s.reg.add(nil, ""); err == nil {
		t.Fatal("nil artifact accepted")
	}
	// File-backed models surface their source in the listing.
	if ms := s.reg.Models(); ms[0].Source != path {
		t.Fatalf("source %q, want %q", ms[0].Source, path)
	}
}

// panicModel stands in for an artifact whose payload disagrees with its
// header (e.g. trained on a different feature width): evaluation panics.
type panicModel struct{}

func (panicModel) Fit(X [][]float64, y []float64) error { return nil }
func (panicModel) Predict(x []float64) float64          { panic("width mismatch") }

// TestPredictContainsModelPanic pins that a panicking model fails the
// request with a 500 instead of killing the process, and that the server
// keeps serving healthy models afterwards.
func TestPredictContainsModelPanic(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 2})
	bad := &persist.Artifact{Name: "bad", FeatureNames: []string{"f0", "f1", "f2"}, Model: panicModel{}}
	if err := s.reg.add(bad, ""); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec, _ := postPredict(t, h, `{"model":"bad","vectors":[[1,2,3],[4,5,6]]}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	er := decodeEnvelope(t, rec)
	if er.Code != api.CodeInternal || !strings.Contains(er.Message, "bad") {
		t.Fatalf("error %+v does not name the model with an internal code", er)
	}

	rec, resp := postPredict(t, h, `{"model":"k-NN","vector":[1,2,3]}`)
	if rec.Code != http.StatusOK || len(resp.Predictions) != 1 {
		t.Fatalf("healthy model unavailable after panic: status %d", rec.Code)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	c.put("a", 9)
	if v, _ := c.get("a"); v != 9 {
		t.Fatal("update lost")
	}

	disabled := newLRUCache(-1)
	disabled.put("a", 1)
	if _, ok := disabled.get("a"); ok || disabled.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}

	// Distinct vectors must produce distinct keys even when they print alike.
	if cacheKey("m", 1, []float64{1, 2}) == cacheKey("m", 1, []float64{1, 2.0000000000000004}) {
		t.Fatal("cache key ignores low-order float bits")
	}
	if cacheKey("m1", 1, []float64{1}) == cacheKey("m2", 1, []float64{1}) {
		t.Fatal("cache key ignores model name")
	}
	// The artifact fingerprint is part of the key: a hot-reloaded model
	// must never hit its predecessor's entries.
	if cacheKey("m", 1, []float64{1}) == cacheKey("m", 2, []float64{1}) {
		t.Fatal("cache key ignores artifact fingerprint")
	}
}

// Scenario tags on loaded artifacts must surface in /v1/models so clients
// of a multi-scenario deployment can route predictions.
func TestModelsEndpointScenarioTags(t *testing.T) {
	s := New(Config{})
	tagged := syntheticArtifact(t, "k-NN", knn.New(3))
	tagged.Circuit = "alupipe"
	tagged.Workload = "randomops"
	if err := s.reg.add(tagged, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.add(syntheticArtifact(t, "untagged", knn.New(3)), ""); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp api.ModelsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Models[0].Circuit != "alupipe" || resp.Models[0].Workload != "randomops" {
		t.Fatalf("tags listed as %q/%q", resp.Models[0].Circuit, resp.Models[0].Workload)
	}
	if resp.Models[1].Circuit != "" || resp.Models[1].Workload != "" {
		t.Fatalf("untagged model listed with tags %q/%q", resp.Models[1].Circuit, resp.Models[1].Workload)
	}
	// The raw JSON must omit the tag keys for untagged models (additive,
	// backward-compatible schema).
	body := rec.Body.String()
	if !strings.Contains(body, `"circuit":"alupipe"`) {
		t.Fatalf("tagged circuit missing from JSON: %s", body)
	}
	if strings.Count(body, `"circuit"`) != 1 {
		t.Fatalf("untagged model serialized a circuit key: %s", body)
	}
}

// TestReloadNeverServesStale pins the hot-reload path end to end: train a
// model, serve (and cache) a prediction, retrain the artifact file with
// different data, POST /v1/models/reload, and require the very same vector
// to be answered by the NEW model — the fingerprinted cache key makes the
// old cache entry unreachable.
func TestReloadNeverServesStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "knn.ffrm")
	v1 := syntheticArtifactSeed(t, "k-NN", knn.New(3), 7)
	if err := persist.Save(path, v1); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	if _, err := s.LoadArtifact(path); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	x := []float64{0.5, 1.5, 3}
	body := fmt.Sprintf(`{"model":"k-NN","vector":[%g,%g,%g]}`, x[0], x[1], x[2])

	rec, resp := postPredict(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	oldPred := resp.Predictions[0]
	// Prime the cache.
	if rec, resp = postPredict(t, h, body); resp.CacheHits != 1 {
		t.Fatalf("prime: %d cache hits, want 1", resp.CacheHits)
	}

	// Retrain on different data and overwrite the artifact file.
	v2 := syntheticArtifactSeed(t, "k-NN", knn.New(3), 99)
	if err := persist.Save(path, v2); err != nil {
		t.Fatal(err)
	}
	wantNew := v2.Model.Predict(x)
	if wantNew == oldPred {
		t.Fatal("test fixture degenerate: retrained model predicts identically")
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/models/reload", strings.NewReader(`{}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body.String())
	}
	var rr api.ReloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Reloaded != 1 || len(rr.Results) != 1 || !rr.Results[0].Reloaded || !rr.Results[0].Changed {
		t.Fatalf("reload response %+v", rr)
	}

	// The same vector must now be answered by the new model — not the old
	// model's cached prediction.
	rec, resp = postPredict(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.CacheHits != 0 {
		t.Fatalf("post-reload request hit the stale cache (%d hits)", resp.CacheHits)
	}
	if resp.Predictions[0] != wantNew {
		t.Fatalf("post-reload prediction %v, want %v (stale: %v)", resp.Predictions[0], wantNew, oldPred)
	}

	// Reloading an unchanged file is a no-op swap.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/reload", strings.NewReader(`{"models":["k-NN"]}`)))
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Results[0].Reloaded || rr.Results[0].Changed {
		t.Fatalf("unchanged reload response %+v", rr)
	}

	// Unknown and in-memory models fail per-entry without failing the call.
	s2, _ := testServer(t, Config{})
	rec = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/reload",
		strings.NewReader(`{"models":["k-NN","nope"]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("partial reload status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Reloaded != 0 || rr.Results[0].Error == "" || rr.Results[1].Error == "" {
		t.Fatalf("partial reload response %+v", rr)
	}
}

// blockingModel parks every Predict until released, so tests can hold
// requests in flight deterministically.
type blockingModel struct {
	started chan struct{} // receives one token per evaluation begun
	release chan struct{} // closed to let evaluations finish
	evals   *atomic.Int32
}

func (m blockingModel) Fit(X [][]float64, y []float64) error { return nil }

func (m blockingModel) Predict(x []float64) float64 {
	m.evals.Add(1)
	select {
	case m.started <- struct{}{}:
	default:
	}
	<-m.release
	return x[0]
}

// TestAdmissionControl pins the per-model bounded queue: with QueueDepth 1
// and one request parked in flight, the next request is shed with 429, the
// overloaded error code and a Retry-After hint — and other models are
// unaffected.
func TestAdmissionControl(t *testing.T) {
	evals := &atomic.Int32{}
	m := blockingModel{started: make(chan struct{}, 8), release: make(chan struct{}), evals: evals}
	s := New(Config{
		Workers:    2,
		QueueDepth: 1,
	})
	if err := s.reg.add(&persist.Artifact{Name: "slow", FeatureNames: []string{"f0"}, Model: m}, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.add(syntheticArtifact(t, "k-NN", knn.New(3)), ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one request in flight.
	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"model":"slow","vector":[1]}`))
		if err != nil {
			first <- result{err: err}
			return
		}
		defer resp.Body.Close()
		first <- result{status: resp.StatusCode}
	}()
	<-m.started // evaluation began: the single admission slot is held

	// The next request for the same model is shed immediately.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"model":"slow","vector":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
	if er := api.DecodeError(resp.StatusCode, body); er.Code != api.CodeOverloaded {
		t.Fatalf("code %q, want %q", er.Code, api.CodeOverloaded)
	}

	// Admission is per model: a different model still serves.
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"model":"k-NN","vector":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other model status %d, want 200", resp.StatusCode)
	}

	close(m.release)
	if r := <-first; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("parked request finished with %+v", r)
	}
}

// TestAdmissionFlood sends ten thousand concurrent predict requests through
// the handler, in process and without sockets. The model blocks until every
// request but the QueueDepth admitted ones has been answered, so the split
// is exact: the admitted ones get 200 with the model's own prediction, every
// other one a 429 with Retry-After and the overloaded code.
func TestAdmissionFlood(t *testing.T) {
	const requests, depth = 10000, 8
	m := blockingModel{started: make(chan struct{}, 1), release: make(chan struct{}), evals: &atomic.Int32{}}
	s := New(Config{
		Workers:    4,
		QueueDepth: depth,
	})
	if err := s.reg.add(&persist.Artifact{Name: "slow", FeatureNames: []string{"f0"}, Model: m}, ""); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	type answer struct {
		x   float64
		rec *httptest.ResponseRecorder
	}
	answers := make(chan answer, requests)
	begin := make(chan struct{})
	for i := range requests {
		go func() {
			x := float64(i)
			req := httptest.NewRequest(http.MethodPost, "/v1/predict",
				strings.NewReader(fmt.Sprintf(`{"model":"slow","vector":[%g]}`, x)))
			rec := httptest.NewRecorder()
			<-begin
			h.ServeHTTP(rec, req)
			answers <- answer{x, rec}
		}()
	}
	close(begin)

	var got []answer
	for len(got) < requests {
		if len(got) == requests-depth {
			close(m.release) // only the admitted requests are left
		}
		select {
		case a := <-answers:
			got = append(got, a)
		case <-time.After(time.Minute):
			t.Fatalf("%d of %d requests answered, then none for a minute", len(got), requests)
		}
	}
	var ok, shed int
	for _, a := range got {
		switch a.rec.Code {
		case http.StatusOK:
			ok++
			var pr api.PredictResponse
			if err := json.Unmarshal(a.rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("vector [%g]: bad body %q: %v", a.x, a.rec.Body.String(), err)
			}
			if want := m.Predict([]float64{a.x}); len(pr.Predictions) != 1 || pr.Predictions[0] != want {
				t.Errorf("vector [%g]: predictions %v, want [%v]", a.x, pr.Predictions, want)
			}
		case http.StatusTooManyRequests:
			shed++
			if ra := a.rec.Header().Get("Retry-After"); ra != "1" {
				t.Errorf("vector [%g]: Retry-After %q, want 1", a.x, ra)
			}
			if er := api.DecodeError(a.rec.Code, a.rec.Body.Bytes()); er.Code != api.CodeOverloaded {
				t.Errorf("vector [%g]: code %q, want %q", a.x, er.Code, api.CodeOverloaded)
			}
		default:
			t.Errorf("vector [%g]: status %d: %s", a.x, a.rec.Code, a.rec.Body.String())
		}
	}
	if ok != depth || shed != requests-depth {
		t.Errorf("%d served and %d shed of %d requests, want %d and %d", ok, shed, requests, depth, requests-depth)
	}
}

// TestMetricsEndpoint pins the Prometheus text exposition: counters and
// histograms appear after traffic, in the 0.0.4 text format.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	h := s.Handler()
	body := `{"model":"k-NN","vector":[0.5,1.5,3]}`
	postPredict(t, h, body)
	postPredict(t, h, body) // cache hit

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`ffr_serve_requests_total{path="/v1/predict",code="200"} 2`,
		"ffr_serve_cache_hits_total 1",
		"ffr_serve_cache_misses_total 1",
		"# TYPE ffr_serve_request_seconds histogram",
		"ffr_serve_request_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestSharedRegistry pins Config.Registry injection: two servers serving
// one registry see the same models.
func TestSharedRegistry(t *testing.T) {
	reg := NewRegistry()
	if err := reg.add(syntheticArtifact(t, "k-NN", knn.New(3)), ""); err != nil {
		t.Fatal(err)
	}
	a := New(Config{Registry: reg})
	b := New(Config{Registry: reg})
	if a.NumModels() != 1 || b.NumModels() != 1 {
		t.Fatalf("shared registry not visible: %d/%d", a.NumModels(), b.NumModels())
	}
	if a.reg != reg {
		t.Fatal("the server does not keep the injected store")
	}
	if got := reg.Models(); len(got) != 1 || got[0].Name != "k-NN" {
		t.Fatalf("models %+v", got)
	}
}
