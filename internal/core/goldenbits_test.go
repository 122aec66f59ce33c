package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// protocolGoldenBits is the Section IV-B protocol on the small MAC study —
// Table I over all seven models, the k-NN learning curve and the k-NN
// random+grid search — with every score printed as a hexadecimal float64. It
// was recorded from the scalar ml loops (the references kept in the ml
// packages' equiv_test.go files) and must never change: a fitted model's bits
// are part of its identity (docs/ARCHITECTURE.md, "ML numerics").
const protocolGoldenBits = `table1 "Linear Least Squares" mae=0x1.10a0ce7e614ccp-03 rmse=0x1.84e9405b9beb4p-03 r2=0x1.152c88712cacep-01
table1 "k-NN" mae=0x1.1adb2e74390c2p-04 rmse=0x1.fd9e4d9e69aaep-04 r2=0x1.990b374c00ce6p-01
table1 "SVR w/ RBF Kernel" mae=0x1.3524b4526a3b6p-04 rmse=0x1.021e631782634p-03 r2=0x1.9779ee21c5b09p-01
table1 "Decision Tree" mae=0x1.1b23a543bc3a2p-04 rmse=0x1.0eb103b7043b3p-03 r2=0x1.8d9c4e9554da1p-01
table1 "Random Forest" mae=0x1.35704e2d1b1a8p-04 rmse=0x1.d9292320b517p-04 r2=0x1.a857cd75827efp-01
table1 "Gradient Boosting" mae=0x1.13f2addc4b424p-04 rmse=0x1.c26b52ca3ac38p-04 r2=0x1.b140cedcc593ep-01
table1 "MLP" mae=0x1.9f0375a4d5921p-04 rmse=0x1.80a197a091187p-03 r2=0x1.18b51646121fp-01
curve frac=0.1 train=0x1p+00 test=0x1.bd28765f46abp-02
curve frac=0.5 train=0x1.fe7f987a9e7bp-01 test=0x1.8249a6a3c73f5p-01
curve frac=0.95 train=0x1.fd6a5a20ccc38p-01 test=0x1.a03b44a340d0dp-01
tune random k=9 score=0x1.6f3143c51e818p-01
tune grid k=7 score=0x1.7807e63bba73cp-01
`

func TestProtocolGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; a target that fuses multiply-adds rounds differently")
	}
	s := smallStudy(t)
	var b strings.Builder

	rows, err := s.Table1(append(PaperModels(), ExtendedModels()...), 2, PaperTrainFrac, 1)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "table1 %q mae=%x rmse=%x r2=%x\n", r.Model, r.MAE, r.RMSE, r.R2)
	}

	knn := PaperModels()[1]
	points, err := s.LearningCurve(knn, []float64{0.1, 0.5, 0.95}, 3, 1)
	if err != nil {
		t.Fatalf("LearningCurve: %v", err)
	}
	for _, p := range points {
		fmt.Fprintf(&b, "curve frac=%v train=%x test=%x\n", p.TrainFrac, p.TrainScore, p.TestScore)
	}

	out, err := s.TuneModel(knn, 6, 1)
	if err != nil {
		t.Fatalf("TuneModel: %v", err)
	}
	fmt.Fprintf(&b, "tune random k=%v score=%x\n", out.Random.Best["k"], out.Random.BestScore)
	fmt.Fprintf(&b, "tune grid k=%v score=%x\n", out.Grid.Best["k"], out.Grid.BestScore)

	if got := b.String(); got != protocolGoldenBits {
		t.Errorf("protocol bits changed.\ngot:\n%s\nrecorded:\n%s", got, protocolGoldenBits)
	}
}
