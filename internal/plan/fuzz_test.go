package plan

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Whatever bytes a loop checkpoint file holds, the loader returns one of its
// two typed errors or a checkpoint that survives save → load with its
// content unchanged; it never panics.
func FuzzLoadLoopCheckpoint(f *testing.F) {
	for _, name := range []string{"loop.ckpt", "removed-uncertainty.ckpt", "removed-cluster.ckpt"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzzed.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := loadLoopCheckpoint(path)
		if err != nil {
			if !errors.Is(err, ErrLoopCheckpointCorrupt) && !errors.Is(err, ErrLoopCheckpointVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := saveLoopCheckpoint(again, ck); err != nil {
			t.Fatalf("saving what loaded: %v", err)
		}
		back, err := loadLoopCheckpoint(again)
		if err != nil {
			t.Fatalf("loading what was saved: %v", err)
		}
		if loopDigest(back) != loopDigest(ck) {
			t.Fatalf("digest %#x became %#x across a save", loopDigest(ck), loopDigest(back))
		}
	})
}
