package fault_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// Whatever bytes a checkpoint file holds, LoadCheckpoint returns one of its
// two typed errors or a checkpoint that survives SaveCheckpoint →
// LoadCheckpoint with its fingerprint unchanged; it never panics.
func FuzzLoadCheckpoint(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
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
		path := filepath.Join(dir, "fuzzed.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := fault.LoadCheckpoint(path)
		if err != nil {
			if !errors.Is(err, fault.ErrCheckpointCorrupt) && !errors.Is(err, fault.ErrCheckpointVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := fault.SaveCheckpoint(again, ck); err != nil {
			t.Fatalf("saving what loaded: %v", err)
		}
		back, err := fault.LoadCheckpoint(again)
		if err != nil {
			t.Fatalf("loading what was saved: %v", err)
		}
		if back.Fingerprint() != ck.Fingerprint() {
			t.Fatalf("fingerprint %#x became %#x across a save", ck.Fingerprint(), back.Fingerprint())
		}
	})
}
