package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/persist"
)

// Whatever body a client posts to /v1/predict, the answer is a 200 whose
// body decodes to finite predictions, one per vector, or a 4xx carrying the
// {code,message} envelope; never a 500, an empty 200 or a panic.
func FuzzPredictRequest(f *testing.F) {
	s, _ := testServer(f, Config{})
	h := s.Handler()
	// The shapes bench's serve-predict workload posts (a single vector, a
	// batch), the vectors that once answered 200 with no body, and a few
	// malformed ones.
	f.Add([]byte(`{"model":"k-NN","vector":[0.5,1.5,3]}`))
	f.Add([]byte(`{"model":"Linear Least Squares","vectors":[[0.1,0.2,0.3],[0.5,1.5,3],[1,4,10]]}`))
	f.Add([]byte(`{"model":"k-NN","vector":[1e308,1e308,1e308]}`))
	f.Add([]byte(`{"model":"k-NN","vectors":[[0.5,1.5,3],[-1e308,-1e308,-1e308]]}`))
	f.Add([]byte(`{"model":"Linear Least Squares","vector":[1e308,1e308,1e308]}`))
	f.Add([]byte(`{"model":"k-NN","vector":[1,2]}`))
	f.Add([]byte(`{"model":"nope","vectors":[]}`))
	f.Add([]byte(`{"model":`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var resp api.PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with body %q: %v", rec.Body.String(), err)
			}
			var req api.PredictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body the handler should not have decoded: %v", err)
			}
			if want := max(len(req.Vectors), 1); len(resp.Predictions) != want {
				t.Fatalf("%d predictions for %d vectors", len(resp.Predictions), want)
			}
			for i, p := range resp.Predictions {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("prediction %d is %v", i, p)
				}
			}
			return
		}
		assertClientError(t, rec, body)
	})
}

// Whatever body a client posts to /v1/harden, the answer is a 200 whose body
// decodes to a plan with only finite numbers, or a 4xx carrying the
// {code,message} envelope; never a 5xx or a panic.
func FuzzHardenRequest(f *testing.F) {
	s, _ := testServer(f, Config{})
	art, _ := scenarioArtifact(f, "alupipe/randomops")
	if err := s.reg.add(art, ""); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	const rows = `"vectors":[[0.1,0.2,9],[0.9,3.9,0.1],[0.2,0.1,8],[0.8,3.5,0.4]]`
	// The explicit-mode bodies of TestHardenExplicitVectors, the two that
	// once answered 500, malformed costs and names, both modes at once, and
	// a scenario-mode plan over the artifact's small-scale scenario.
	f.Add([]byte(`{"model":"k-NN","budget":0.5,"clusters":2,` + rows + `,"names":["a","b","c","d"]}`))
	f.Add([]byte(`{"model":"k-NN","budget":1,"vectors":[[0.1,0.2,9],[0.9,3.9,0.1]]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0.5,"vectors":[[1e308,1e308,1e308],[0.1,0.2,9]]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0.5,"vectors":[[0.1,0.2,9],[0.9,3.9,0.1]],"costs":[1e308,1e308]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0,"vectors":[[0.1,0.2,9],[0.9,3.9,0.1]],"costs":[1e308,1e308]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0.5,` + rows + `,"costs":[1,2,3]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0.5,` + rows + `,"names":["a"]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0.5,` + rows + `,"costs":[1,0,1,1]}`))
	f.Add([]byte(`{"model":"Linear Least Squares","budget":0.5,` + rows + `,"costs":[1,-2,1,1]}`))
	f.Add([]byte(`{"model":"k-NN","budget":0.5,"vectors":[[0,0,0]],"scenario":"alupipe/randomops"}`))
	f.Add([]byte(`{"model":"truth","budget":0.5,"scenario":"alupipe/randomops","scale":"small","scenario_seed":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/harden", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var resp api.HardenResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with body %q: %v", rec.Body.String(), err)
			}
			nums := []float64{resp.Budget, resp.TotalArea, resp.UsedArea, resp.BaseFFR, resp.ResidualFFR}
			for _, c := range append(resp.Selected, resp.Rest...) {
				nums = append(nums, c.Score, c.Area)
			}
			for _, pt := range resp.Curve {
				nums = append(nums, pt.Budget, pt.Area, pt.ResidualFFR)
			}
			for _, v := range nums {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("plan carries %v: %s", v, rec.Body.String())
				}
			}
			return
		}
		assertClientError(t, rec, body)
	})
}

// assertClientError fails unless rec is a 4xx carrying the {code,message}
// envelope.
func assertClientError(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code == "" || er.Error.Message == "" {
		t.Fatalf("status %d without an envelope: %q", rec.Code, rec.Body.String())
	}
}

// Whatever body a client posts to /v1/models/reload, the answer is a 200
// whose body decodes to a ReloadResponse with one result per requested name
// (per file-backed model when none is named), or a 4xx carrying the
// {code,message} envelope; never a 5xx or a panic. The server serves one
// file-backed model and one registered in memory.
func FuzzReloadRequest(f *testing.F) {
	path := filepath.Join(f.TempDir(), "knn.ffrm")
	if err := persist.Save(path, syntheticArtifact(f, "k-NN", knn.New(3))); err != nil {
		f.Fatal(err)
	}
	s := New(Config{})
	if _, err := s.LoadArtifact(path); err != nil {
		f.Fatal(err)
	}
	if err := s.reg.add(syntheticArtifact(f, "Linear Least Squares", linreg.NewRidge(0)), ""); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Add([]byte(``))
	f.Add([]byte(`{"models":[]}`))
	f.Add([]byte(`{"models":["k-NN"]}`))
	f.Add([]byte(`{"models":["nope","k-NN"]}`))
	f.Add([]byte(`{"models":["Linear Least Squares"]}`))
	f.Add([]byte(`{"models":"k-NN"}`))
	f.Add([]byte(`reload everything`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/reload", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			assertClientError(t, rec, body)
			return
		}
		var resp api.ReloadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with body %q: %v", rec.Body.String(), err)
		}
		var req api.ReloadRequest
		json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		reloaded := 0
		for _, e := range resp.Results {
			if e.Reloaded {
				reloaded++
			}
		}
		if want := max(len(req.Models), 1); len(resp.Results) != want || resp.Reloaded != reloaded {
			t.Fatalf("%d results (%d reloaded, counted %d) for %d names: %s",
				len(resp.Results), reloaded, resp.Reloaded, len(req.Models), rec.Body.String())
		}
	})
}
