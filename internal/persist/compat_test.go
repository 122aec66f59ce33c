package persist_test

import (
	"bytes"
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

// The files under testdata/ were written by the build before the container
// package existed (PR 18's `ffr train -model "Linear Least Squares" -n 1
// -save` and persist.Save), and the fingerprints and predictions beside them
// were printed by that build. Each must load, fingerprint to the recorded
// value, predict the recorded bits and re-save to the same header line.
func TestArtifactCompatibility(t *testing.T) {
	for _, tc := range []struct {
		file              string
		fingerprint       uint64
		kind              string
		circuit, workload string
		// predictZero is the model's prediction for the all-zero vector.
		predictZero float64
	}{
		{"artifact.ffrm", 0xe1bf5dac07b66af2, "pipeline[std,linreg]", "mac10ge", "loopback", 0x1.0559454361894p-01},
		// No circuit, workload or metrics in the header: the format from
		// before the corpus existed.
		{"artifact-legacy.ffrm", 0x71d1fbd21976d64f, "linreg", "", "", -0x1.3b7b322c00679p-50},
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
				got := a.Model.Predict(make([]float64, a.NumFeatures()))
				if math.Float64bits(got) != math.Float64bits(tc.predictZero) {
					t.Errorf("%s: predicts %x for the zero vector, recorded %x", what, got, tc.predictZero)
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
