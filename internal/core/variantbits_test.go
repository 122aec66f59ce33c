package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// featureVariantGoldenBits is the Table I protocol run on the two Section V
// model variants, on the small MAC study at seed 1, every score printed as a
// hexadecimal float64: six feature-group rows (k-NN behind ColumnsModel,
// PaperCVSplits splits) and the R² of five PCA rows (k-NN behind
// standardization and PCA, 5 splits), the two kinds of row ffr exp -exp
// features prints. It was recorded before the rows became Table1 over model
// variants and must never change (docs/ARCHITECTURE.md, "ML numerics").
const featureVariantGoldenBits = `ablation "all features" mae=0x1.1da9800cfb092p-04 max=0x1.6651ebcb60b17p-01 rmse=0x1.011d1366e724fp-03 ev=0x1.9750a7624f49cp-01 r2=0x1.9659e6a10bb54p-01
ablation "structural only" mae=0x1.26a233a6bd687p-04 max=0x1.7e4c572f5b644p-01 rmse=0x1.0e333643d8023p-03 ev=0x1.8c08792692cb5p-01 r2=0x1.8b15fcff471b3p-01
ablation "synthesis only" mae=0x1.4fb833fc5999fp-04 max=0x1.98532c7616045p-01 rmse=0x1.2aa6abad421abp-03 ev=0x1.725db25e0282dp-01 r2=0x1.71cf714e44562p-01
ablation "dynamic only" mae=0x1.eed7a6f3cecb2p-03 max=0x1.eb90c3bffdd32p-01 rmse=0x1.5e9507b39086bp-02 ev=-0x1.91968f24ce70fp-02 r2=-0x1.191705eb9df57p-01
ablation "w/o dynamic" mae=0x1.12f94a0990ffcp-04 max=0x1.60a5c7940060ap-01 rmse=0x1.f055f51cf8855p-04 ev=0x1.9df703cf26262p-01 r2=0x1.9d0cc047be4dp-01
ablation "w/o structural" mae=0x1.4c2fa560de337p-04 max=0x1.e842477b58a74p-01 rmse=0x1.41aa8bccd4efcp-03 ev=0x1.5cf2afd1f409p-01 r2=0x1.5bb2e790514e4p-01
pca k=3 r2=0x1.4e72ba38b2cb2p-01
pca k=5 r2=0x1.7c11bd80f8a4cp-01
pca k=10 r2=0x1.853c97bb5e0b5p-01
pca k=15 r2=0x1.8aa41d73df75dp-01
pca k=25 r2=0x1.9779330d0cebdp-01
`

func TestFeatureVariantGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; a target that fuses multiply-adds rounds differently")
	}
	s := smallStudy(t)
	var b strings.Builder
	for _, r := range ablationRows(t, s, 1) {
		fmt.Fprintf(&b, "ablation %q mae=%x max=%x rmse=%x ev=%x r2=%x\n",
			r.Model, r.MAE, r.MAX, r.RMSE, r.EV, r.R2)
	}
	ks := []int{3, 5, 10, 15, 25}
	for i, r2 := range pcaR2s(t, s, ks, 5, 1) {
		fmt.Fprintf(&b, "pca k=%d r2=%x\n", ks[i], r2)
	}
	if got := b.String(); got != featureVariantGoldenBits {
		t.Errorf("feature-variant bits changed.\ngot:\n%s\nrecorded:\n%s", got, featureVariantGoldenBits)
	}
}
