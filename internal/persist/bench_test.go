package persist_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/persist"
)

// trainedKNN fits the paper's k-NN on the whole test-study dataset and
// wraps it as an artifact, as ffr train -save does.
func trainedKNN(b *testing.B) (*persist.Artifact, [][]float64) {
	b.Helper()
	study := smallStudy(b)
	X := study.FeatureRows()
	y, err := study.FDR()
	if err != nil {
		b.Fatal(err)
	}
	spec := core.PaperModels()[1]
	model := spec.Factory()
	if err := model.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	art := persist.New(spec.Name, model, features.Names())
	art.TrainRows = len(X)
	art.TrainHash = persist.DataFingerprint(X, y)
	return art, X
}

// BenchmarkPredictThroughput measures raw single-vector Predict calls on
// the trained k-NN across all CPUs — the ceiling the prediction service
// can serve at (ns/op is per prediction).
func BenchmarkPredictThroughput(b *testing.B) {
	art, X := trainedKNN(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = art.Model.Predict(X[i%len(X)])
			i++
		}
	})
}

// BenchmarkModelArtifactRoundTrip measures one full save → load cycle of
// the trained k-NN artifact (the dominant non-prediction cost of the
// train-once/predict-forever path).
func BenchmarkModelArtifactRoundTrip(b *testing.B) {
	art, X := trainedKNN(b)
	path := filepath.Join(b.TempDir(), "knn.ffrm")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := persist.Save(path, art); err != nil {
			b.Fatal(err)
		}
		loaded, err := persist.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if got, want := loaded.Model.Predict(X[0]), art.Model.Predict(X[0]); got != want {
				b.Fatalf("reloaded model predicts %v, want %v", got, want)
			}
			if fi, err := os.Stat(path); err == nil {
				b.ReportMetric(float64(fi.Size()), "artifact_bytes")
			}
		}
	}
}
