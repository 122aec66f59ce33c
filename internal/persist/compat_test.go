package persist_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

func headerLine(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		t.Fatalf("%s has no header line", path)
	}
	return data[:nl+1]
}

// pinDataset is the fixed 32-row, 4-column training set of the pin-*.ffrm
// files, and pinProbes the two rows they are asked about besides the zero
// vector.
func pinDataset() (X [][]float64, y []float64) {
	const n = 32
	for i := 0; i < n; i++ {
		x := []float64{float64(i%8) / 8, float64(i*5%16) / 16, float64(i * 3 % 4), float64(i) / n}
		X = append(X, x)
		y = append(y, 0.25*x[0]+0.5*x[1]*x[1]+0.0625*x[2]*(1-x[3]))
	}
	return X, y
}

var (
	pinFeatures = []string{"f0", "f1", "f2", "f3"}
	pinProbes   = [][]float64{{0.375, 0.8125, 2, 0.25}, {0.9, 0.1, 1, 0.7}}
)

// The files under testdata/ were written by earlier builds, and the
// fingerprints and predictions beside them were printed by those builds:
// artifact*.ffrm by the build before the container package existed (PR 18's
// `ffr train -model "Linear Least Squares" -n 1 -save` and persist.Save),
// pin-*.ffrm by the build before a model became its own wire state (PR 21's:
// each core.PaperModels/ExtendedModels factory fitted on pinDataset, saved
// under pinFeatures with tags pin/fixed32 and a fixed CreatedAt). Each must
// load, fingerprint to the recorded value, predict the recorded bits and
// re-save to the same header line.
func TestArtifactCompatibility(t *testing.T) {
	for _, tc := range []struct {
		file              string
		fingerprint       uint64
		kind              string
		circuit, workload string
		// predict is the model's prediction for the all-zero vector and,
		// in the pin files, for the two pinProbes.
		predict []float64
	}{
		{"artifact.ffrm", 0xe1bf5dac07b66af2, "pipeline[std,linreg]", "mac10ge", "loopback", []float64{0x1.0559454361894p-01}},
		// No circuit, workload or metrics in the header: the format from
		// before the corpus existed.
		{"artifact-legacy.ffrm", 0x71d1fbd21976d64f, "linreg", "", "", []float64{-0x1.3b7b322c00679p-50}},
		{"pin-linreg.ffrm", 0xedecdf23a8201bd8, "pipeline[std,linreg]", "pin", "fixed32",
			[]float64{-0x1.6bababafbf8fp-06, 0x1.00d75755fbe74p-01, 0x1.9e255889ad90cp-03}},
		{"pin-knn.ffrm", 0x801842099f0a3f5b, "pipeline[std,knn]", "pin", "fixed32",
			[]float64{0x0p+00, 0x1.16b5bb333e954p-01, 0x1.2448fe405a845p-02}},
		{"pin-svr.ffrm", 0xd0fb86f42a754800, "pipeline[std,svr]", "pin", "fixed32",
			[]float64{0x1.999d35332e14p-06, 0x1.102189410cd5ep-01, 0x1.c9ff99ff0a1b8p-03}},
		{"pin-tree.ffrm", 0x8f45ac9a4f962c54, "pipeline[std,tree]", "pin", "fixed32",
			[]float64{0x0p+00, 0x1.fcp-02, 0x1.04p-02}},
		{"pin-forest.ffrm", 0x2f2fbea509dc33bf, "pipeline[std,forest]", "pin", "fixed32",
			[]float64{0x1.552b12b12b12ap-04, 0x1.ce30a3d70a3d6p-02, 0x1.237b63c8daceep-02}},
		{"pin-boosting.ffrm", 0xd3facb2d46807790, "pipeline[std,boosting]", "pin", "fixed32",
			[]float64{0x1.5a17977efcb83p-14, 0x1.fa24ecab0ff49p-02, 0x1.e52c3755ea3f4p-03}},
		{"pin-mlp.ffrm", 0x3cbfc34f4791c5ad, "pipeline[std,mlp]", "pin", "fixed32",
			[]float64{0x1.8de96ae072c06p-08, 0x1.1d5a3c5d90d8bp-02, 0x1.bb19a56b6c4b6p-02}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			src := filepath.Join("testdata", tc.file)
			art, err := persist.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, a *persist.Artifact) {
				t.Helper()
				if a.Kind != tc.kind || a.Circuit != tc.circuit || a.Workload != tc.workload {
					t.Errorf("%s: kind %q, tags %q/%q; want %q, %q/%q",
						what, a.Kind, a.Circuit, a.Workload, tc.kind, tc.circuit, tc.workload)
				}
				if got := a.Fingerprint(); got != tc.fingerprint {
					t.Errorf("%s: fingerprint %#x, recorded %#x", what, got, tc.fingerprint)
				}
				if X, y := pinDataset(); tc.circuit == "pin" && a.TrainHash != persist.DataFingerprint(X, y) {
					t.Errorf("%s: train hash %#x is not pinDataset's", what, a.TrainHash)
				}
				rows := append([][]float64{make([]float64, a.NumFeatures())}, pinProbes...)
				for i, want := range tc.predict {
					if got := a.Model.Predict(rows[i]); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: predicts %x for %v, recorded %x", what, got, rows[i], want)
					}
				}
			}
			check("loaded", art)
			dst := filepath.Join(t.TempDir(), tc.file)
			if err := persist.Save(dst, art); err != nil {
				t.Fatal(err)
			}
			if got, want := headerLine(t, dst), headerLine(t, src); !bytes.Equal(got, want) {
				t.Errorf("re-saved header\n got %s\nwant %s", got, want)
			}
			back, err := persist.Load(dst)
			if err != nil {
				t.Fatal(err)
			}
			check("re-saved", back)
		})
	}
}

// The removed-*.ffrm files were written by the same build as the pin files,
// from the same data, by the model variants that build still had: Euclidean
// and uniformly weighted k-NN, a linear-kernel SVR, a tanh MLP and a min-max
// scaled pipeline. This build implements none of them, and must say so
// rather than predict with the variant it kept.
func TestLoadRefusesRemovedVariants(t *testing.T) {
	for file, want := range map[string]error{
		"removed-knn-euclidean.ffrm": persist.ErrArtifactCorrupt,
		"removed-knn-uniform.ffrm":   persist.ErrArtifactCorrupt,
		"removed-svr-linear.ffrm":    persist.ErrArtifactCorrupt,
		"removed-mlp-tanh.ffrm":      persist.ErrArtifactCorrupt,
		"removed-minmax-knn.ffrm":    persist.ErrUnknownKind,
	} {
		art, err := persist.Load(filepath.Join("testdata", file))
		if !errors.Is(err, want) {
			t.Errorf("%s: loaded %v with error %v, want %v", file, art, err, want)
		}
	}
}
