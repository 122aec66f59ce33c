package core

import (
	"fmt"
	"testing"

	"repro/internal/ml"
)

type benchModel struct {
	name string
	spec ModelSpec
}

// benchModels pairs the benchmark's short model names with the Table I
// factories, in PaperModels() + ExtendedModels() order.
func benchModels() []benchModel {
	specs := append(PaperModels(), ExtendedModels()...)
	var out []benchModel
	for i, name := range []string{"lls", "knn", "svr", "tree", "forest", "gboost", "mlp"} {
		out = append(out, benchModel{name, specs[i]})
	}
	return out
}

// benchSplit is the paper's 50 % stratified split of the small MAC study.
func benchSplit(b *testing.B) (trX [][]float64, trY []float64, teX [][]float64) {
	b.Helper()
	s := smallStudy(b)
	y, err := s.FDR()
	if err != nil {
		b.Fatal(err)
	}
	splits, err := ml.StratifiedShuffleSplits(y, 1, PaperTrainFrac, PaperStratifyBins, 1)
	if err != nil {
		b.Fatal(err)
	}
	trX, trY = ml.Gather(s.FeatureRows(), y, splits[0].Train)
	teX, _ = ml.Gather(s.FeatureRows(), y, splits[0].Test)
	return trX, trY, teX
}

var benchSink float64

// BenchmarkModelFit times one Fit of each Table I model on the training half
// of the small MAC dataset: the per-model "train" line of the time budget.
func BenchmarkModelFit(b *testing.B) {
	trX, trY, _ := benchSplit(b)
	for _, m := range benchModels() {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := m.spec.Factory().Fit(trX, trY); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelPredict times predicting the test half with a fitted model.
func BenchmarkModelPredict(b *testing.B) {
	trX, trY, teX := benchSplit(b)
	for _, m := range benchModels() {
		b.Run(m.name, func(b *testing.B) {
			model := m.spec.Factory()
			if err := model.Fit(trX, trY); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				benchSink += ml.PredictAll(model, teX)[0]
			}
		})
	}
}

// BenchmarkTuneKNN times the random+grid search over k on five splits, with
// 6 random samples and with 20, the default of ffr train -tune and ffr exp
// -exp search.
func BenchmarkTuneKNN(b *testing.B) {
	s := smallStudy(b)
	for _, n := range []int{6, 20} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			for b.Loop() {
				if _, err := s.TuneModel(PaperModels()[1], n, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
