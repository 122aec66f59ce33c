package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
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
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code == "" || er.Error.Message == "" {
			t.Fatalf("status %d without an envelope: %q", rec.Code, rec.Body.String())
		}
	})
}

// Whatever body a client posts to /v1/harden, the answer is a 200 whose body
// decodes to a plan with only finite numbers, or a 4xx carrying the
// {code,message} envelope; never a 5xx or a panic.
func FuzzHardenRequest(f *testing.F) {
	s, _ := testServer(f, Config{})
	art, _ := scenarioArtifact(f, "alupipe/randomops")
	if err := s.Add(art); err != nil {
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
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code == "" || er.Error.Message == "" {
			t.Fatalf("status %d without an envelope: %q", rec.Code, rec.Body.String())
		}
	})
}
