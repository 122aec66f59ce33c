package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// BenchmarkServeBatchPredict measures the prediction service end to end:
// one POST /v1/predict carrying a device's worth of vectors (1054, the
// paper's MAC) through a real HTTP stack (cache disabled so every vector
// hits the model; ns/op is per batch — divide by vectors/op for
// per-prediction cost).
func BenchmarkServeBatchPredict(b *testing.B) {
	srv, art := testServer(b, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 1054)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64() * 4, rng.Float64() * 10}
	}
	body, err := json.Marshal(api.PredictRequest{Model: art.Name, Vectors: X})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var pr api.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(pr.Predictions) != len(X) {
			b.Fatalf("status %d, %d predictions for %d vectors", resp.StatusCode, len(pr.Predictions), len(X))
		}
		if i == 0 {
			b.ReportMetric(float64(len(X)), "vectors/op")
		}
	}
}
