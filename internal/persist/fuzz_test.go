package persist_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

// Whatever bytes an artifact file holds, Load returns one of its three typed
// errors or an artifact that predicts for a vector of its schema's width and
// survives Save → Load with its fingerprint and model kind unchanged; nothing
// panics.
func FuzzLoadArtifact(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ffrm"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed files under testdata/ (%v)", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzzed.ffrm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		art, err := persist.Load(path)
		if err != nil {
			if !errors.Is(err, persist.ErrArtifactCorrupt) && !errors.Is(err, persist.ErrArtifactVersion) &&
				!errors.Is(err, persist.ErrUnknownKind) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		art.Model.Predict(make([]float64, art.NumFeatures()))
		again := filepath.Join(dir, "again.ffrm")
		if err := persist.Save(again, art); err != nil {
			t.Fatalf("saving what loaded: %v", err)
		}
		back, err := persist.Load(again)
		if err != nil {
			t.Fatalf("loading what was saved: %v", err)
		}
		if back.Fingerprint() != art.Fingerprint() || back.Kind != art.Kind {
			t.Fatalf("fingerprint %#x (%s) became %#x (%s) across a save",
				art.Fingerprint(), art.Kind, back.Fingerprint(), back.Kind)
		}
	})
}
