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

// Whatever string it is handed, ParseModel returns an error or a valid model
// whose canonical String parses back to the same model and the same string —
// the form checkpoints record and the fabric sends its workers; it never
// panics.
func FuzzParseModel(f *testing.F) {
	for _, spec := range equivModels {
		f.Add(spec)
	}
	// The third used to render as "seu@1e-05-0.5", which does not parse back;
	// the fourth used to be accepted, and NaN equals nothing, itself included.
	for _, spec := range []string{"", " MBU:3 ", "seu@0.00001-0.5", "seu@nan-1", "stuck0:8@0.25-0.75", "mbu:0", "set:2", "seu@0.5"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := fault.ParseModel(spec)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseModel(%q) returned invalid %+v: %v", spec, m, err)
		}
		canon := m.String()
		back, err := fault.ParseModel(canon)
		if err != nil {
			t.Fatalf("ParseModel(%q) = %+v, whose String %q does not parse: %v", spec, m, canon, err)
		}
		if back != m || back.String() != canon {
			t.Fatalf("ParseModel(%q) = %+v (%q), reparsed as %+v (%q)", spec, m, canon, back, back.String())
		}
	})
}
