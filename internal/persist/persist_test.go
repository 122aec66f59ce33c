package persist_test

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/persist"
)

// The round-trip tests run every model against a real (reduced-scale) study
// feature matrix: quickstart-sized device, tiny injection budget. Built once
// per test binary.
var testStudy struct {
	once  sync.Once
	study *core.Study
	err   error
}

func smallStudy(t testing.TB) *core.Study {
	t.Helper()
	testStudy.once.Do(func() {
		cfg := core.DefaultStudyConfig()
		cfg.MAC.FIFODepth = 16
		cfg.MAC.StatWidth = 8
		cfg.MAC.TargetFFs = 0
		cfg.Bench.FIFODepth = 16
		cfg.Bench.Packets = 6
		cfg.Bench.MinPayload = 4
		cfg.Bench.MaxPayload = 6
		cfg.InjectionsPerFF = 4
		st, err := core.NewStudy(cfg)
		if err == nil {
			_, err = st.RunGroundTruth()
		}
		testStudy.study, testStudy.err = st, err
	})
	if testStudy.err != nil {
		t.Fatalf("building test study: %v", testStudy.err)
	}
	return testStudy.study
}

// TestRoundTripBitIdentical pins the headline guarantee: for every model of
// the paper and the extended set, save → load → Predict returns exactly the
// same bits as the in-memory model on the full study feature matrix.
func TestRoundTripBitIdentical(t *testing.T) {
	study := smallStudy(t)
	X := study.FeatureRows()
	y, err := study.FDR()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range append(core.PaperModels(), core.ExtendedModels()...) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			model := spec.Factory()
			if err := model.Fit(X, y); err != nil {
				t.Fatalf("fit: %v", err)
			}
			want := ml.PredictAll(model, X)

			art := persist.New(spec.Name, model, features.Names())
			art.TrainRows = len(X)
			art.TrainHash = persist.DataFingerprint(X, y)
			art.Metrics = map[string]float64{"r2_smoke": 1}
			path := filepath.Join(t.TempDir(), "model.ffrm")
			if err := persist.Save(path, art); err != nil {
				t.Fatalf("save: %v", err)
			}

			got, err := persist.Load(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if got.Name != spec.Name {
				t.Errorf("name %q, want %q", got.Name, spec.Name)
			}
			if got.Kind != art.Kind || got.Kind == "" {
				t.Errorf("kind %q, want %q", got.Kind, art.Kind)
			}
			if got.TrainRows != len(X) || got.TrainHash != art.TrainHash {
				t.Errorf("fingerprint round-trip: rows %d hash %x, want %d / %x",
					got.TrainRows, got.TrainHash, len(X), art.TrainHash)
			}
			if len(got.FeatureNames) != features.NumFeatures {
				t.Fatalf("schema has %d features, want %d", len(got.FeatureNames), features.NumFeatures)
			}
			for i, name := range features.Names() {
				if got.FeatureNames[i] != name {
					t.Fatalf("schema[%d] = %q, want %q", i, got.FeatureNames[i], name)
				}
			}

			for i, x := range X {
				p := got.Model.Predict(x)
				if math.Float64bits(p) != math.Float64bits(want[i]) {
					t.Fatalf("row %d: reloaded model predicts %v, in-memory %v (bits differ)",
						i, p, want[i])
				}
			}
		})
	}
}

// fittedArtifact builds a small valid artifact on synthetic data, for the
// corruption tests.
func fittedArtifact(t *testing.T) (string, *persist.Artifact) {
	t.Helper()
	model := linreg.NewRidge(0)
	X := [][]float64{{1, 2}, {2, 3}, {3, 5}, {4, 4}, {5, 8}}
	y := []float64{1, 2, 3, 4, 5}
	if err := model.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	art := persist.New("lin", model, []string{"a", "b"})
	art.TrainRows = len(X)
	art.TrainHash = persist.DataFingerprint(X, y)
	path := filepath.Join(t.TempDir(), "lin.ffrm")
	if err := persist.Save(path, art); err != nil {
		t.Fatal(err)
	}
	return path, art
}

func rewrite(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "mutated.ffrm")
	if err := os.WriteFile(out, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	path, _ := fittedArtifact(t)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"garbage header", func(b []byte) []byte {
			return append([]byte("not json at all\n"), b...)
		}, persist.ErrArtifactCorrupt},
		{"wrong magic", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), "repro/ffr model artifact", "something else here ok", 1))
		}, persist.ErrArtifactCorrupt},
		{"version bumped", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"version":1`, `"version":99`, 1))
		}, persist.ErrArtifactVersion},
		{"unknown kind", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"kind":"linreg"`, `"kind":"alien"`, 1))
		}, persist.ErrUnknownKind},
		{"truncated payload", func(b []byte) []byte {
			nl := strings.IndexByte(string(b), '\n')
			return b[:nl+3]
		}, persist.ErrArtifactCorrupt},
		{"header only", func(b []byte) []byte {
			nl := strings.IndexByte(string(b), '\n')
			return b[:nl+1]
		}, persist.ErrArtifactCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mutated := rewrite(t, path, c.mutate)
			_, err := persist.Load(mutated)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("got error %v, want %v", err, c.wantErr)
			}
			if err == nil || err.Error() == c.wantErr.Error() {
				t.Fatalf("error %q carries no context", err)
			}
		})
	}

	if _, err := persist.Load(filepath.Join(t.TempDir(), "missing.ffrm")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist", err)
	}
}

// A header promises every caller of Predict vectors as wide as its schema.
// Load used to take the header's word for it: a k-NN fitted on 4 columns and
// saved under 5 names loaded, and its first Predict sliced a row out of
// range. Each kind, in its pipeline and bare, fitted on pinDataset's 4 columns
// and saved under 1, 4 and 5 names: Load must refuse every width but 4 —
// except that a bare tree, which reads only the columns it split on, can take
// a wider vector — and what loads must predict without a panic.
func TestLoadRejectsModelThatCannotTakeItsSchema(t *testing.T) {
	X, y := pinDataset()
	for _, spec := range append(core.PaperModels(), core.ExtendedModels()...) {
		pipeline := spec.Factory().(*ml.Pipeline)
		if err := pipeline.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		bare := pipeline.Model
		if err := bare.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, model := range []ml.Regressor{pipeline, bare} {
			for _, names := range [][]string{{"a"}, pinFeatures, {"a", "b", "c", "d", "e"}} {
				art := persist.New(spec.Name, model, names)
				path := filepath.Join(t.TempDir(), "model.ffrm")
				if err := persist.Save(path, art); err != nil {
					t.Fatal(err)
				}
				_, trees := map[string]bool{"tree": true, "forest": true, "boosting": true}[art.Kind]
				fits := len(names) == len(pinFeatures) || (trees && len(names) > len(pinFeatures))
				got, err := persist.Load(path)
				if !fits {
					if !errors.Is(err, persist.ErrArtifactCorrupt) {
						t.Errorf("%s under %d names: error %v, want ErrArtifactCorrupt", art.Kind, len(names), err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s under %d names: %v", art.Kind, len(names), err)
					continue
				}
				got.Model.Predict(make([]float64, got.NumFeatures()))
			}
		}
	}
}

func TestSaveValidation(t *testing.T) {
	dir := t.TempDir()
	model := linreg.NewRidge(0)
	if err := persist.Save(filepath.Join(dir, "a"), nil); err == nil {
		t.Error("nil artifact accepted")
	}
	if err := persist.Save(filepath.Join(dir, "a"), &persist.Artifact{Name: "m", FeatureNames: []string{"f"}}); err == nil {
		t.Error("nil model accepted")
	}
	if err := persist.Save(filepath.Join(dir, "a"), &persist.Artifact{Model: model, FeatureNames: []string{"f"}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := persist.Save(filepath.Join(dir, "a"), &persist.Artifact{Model: model, Name: "m"}); err == nil {
		t.Error("empty schema accepted")
	}
}

type alienModel struct{}

func (alienModel) Fit(X [][]float64, y []float64) error { return nil }
func (alienModel) Predict(x []float64) float64          { return 0 }

func TestKindOf(t *testing.T) {
	k, err := persist.KindOf(&ml.Pipeline{Scaler: &ml.StandardScaler{}, Model: knn.New(3)})
	if err != nil || k != "pipeline[std,knn]" {
		t.Errorf("pipeline kind %q (%v), want pipeline[std,knn]", k, err)
	}
	k, err = persist.KindOf(&ml.Pipeline{Model: linreg.NewRidge(0)})
	if err != nil || k != "pipeline[raw,linreg]" {
		t.Errorf("scalerless pipeline kind %q (%v), want pipeline[raw,linreg]", k, err)
	}
	if _, err := persist.KindOf(alienModel{}); err == nil {
		t.Error("unregistered model type accepted")
	}
	if !persist.KnownKind("pipeline[std,pipeline[raw,tree]]") {
		t.Error("nested pipeline kind not recognized")
	}
	if persist.KnownKind("pipeline[std,alien]") || persist.KnownKind("pipeline[std]") {
		t.Error("malformed/unknown composite kind accepted")
	}
}

func TestDataFingerprint(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	y := []float64{5, 6}
	h1 := persist.DataFingerprint(X, y)
	Xc := [][]float64{{1, 2}, {3, 4}}
	if h2 := persist.DataFingerprint(Xc, []float64{5, 6}); h2 != h1 {
		t.Errorf("identical data fingerprints differ: %x vs %x", h1, h2)
	}
	Xc[1][1] = math.Nextafter(4, 5)
	if h2 := persist.DataFingerprint(Xc, y); h2 == h1 {
		t.Error("single-ULP change not detected")
	}
	if h2 := persist.DataFingerprint(X, []float64{5, 7}); h2 == h1 {
		t.Error("target change not detected")
	}
}

func TestCheckVector(t *testing.T) {
	art := persist.New("m", linreg.NewRidge(0), []string{"a", "b", "c"})
	if err := art.CheckVector([]float64{1, 2, 3}); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	err := art.CheckVector([]float64{1, 2})
	if !errors.Is(err, persist.ErrSchemaMismatch) {
		t.Fatalf("got %v, want ErrSchemaMismatch", err)
	}
	if !strings.Contains(err.Error(), "2") || !strings.Contains(err.Error(), "3") {
		t.Errorf("error %q does not state both widths", err)
	}
}

// Scenario tags (circuit/workload) must round-trip through the header, and
// their absence must load as empty strings (pre-corpus artifacts).
func TestScenarioTagsRoundTrip(t *testing.T) {
	study := smallStudy(t)
	X := study.FeatureRows()
	y, err := study.FDR()
	if err != nil {
		t.Fatal(err)
	}
	spec := core.PaperModels()[1]
	model := spec.Factory()
	if err := model.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	art := persist.New(spec.Name, model, features.Names())
	art.Circuit = study.Scenario.Entry.Name
	art.Workload = study.Scenario.Workload.Name
	path := filepath.Join(t.TempDir(), "tagged.ffrm")
	if err := persist.Save(path, art); err != nil {
		t.Fatal(err)
	}
	got, err := persist.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Circuit != "mac10ge" || got.Workload != "loopback" {
		t.Fatalf("tags round-tripped as %q/%q, want mac10ge/loopback", got.Circuit, got.Workload)
	}

	// Untagged artifacts (the pre-corpus format) stay loadable with empty
	// tags.
	art2 := persist.New(spec.Name, model, features.Names())
	path2 := filepath.Join(t.TempDir(), "untagged.ffrm")
	if err := persist.Save(path2, art2); err != nil {
		t.Fatal(err)
	}
	got2, err := persist.Load(path2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Circuit != "" || got2.Workload != "" {
		t.Fatalf("untagged artifact loaded with tags %q/%q", got2.Circuit, got2.Workload)
	}
}
