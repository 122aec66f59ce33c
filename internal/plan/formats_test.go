package plan

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/persist"
)

// One table over the three file formats — here because the loop loader is
// unexported and this package already imports the other two. Before the
// loaders shared internal/durable, all three returned nil for a valid file
// with bytes appended, and fault.LoadCheckpoint accepted a completed_chunks
// that disagreed with its payload.
func TestLoadersRejectDoctoredFiles(t *testing.T) {
	formats := []struct {
		name, file string
		load       func(path string) error
		corrupt    error
		// count is the header field that counts the payload's entries, as
		// the file has it, and miscount the same field off by one.
		count, miscount string
	}{
		{"campaign checkpoint", "../fault/testdata/campaign.ckpt",
			func(p string) error { _, err := fault.LoadCheckpoint(p); return err },
			fault.ErrCheckpointCorrupt, `"completed_chunks":4`, `"completed_chunks":3`},
		{"loop checkpoint", "testdata/loop.ckpt",
			func(p string) error { _, err := loadLoopCheckpoint(p); return err },
			ErrLoopCheckpointCorrupt, `"completed_rounds":3`, `"completed_rounds":4`},
		{"model artifact", "../persist/testdata/artifact.ffrm",
			func(p string) error { _, err := persist.Load(p); return err },
			persist.ErrArtifactCorrupt, "", ""},
	}
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			data, err := os.ReadFile(f.file)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.load(f.file); err != nil {
				t.Fatalf("the file as it is: %v", err)
			}
			doctored := map[string][]byte{
				"GARBAGE appended":   append(data[:len(data):len(data)], "GARBAGE"...),
				"one byte appended":  append(data[:len(data):len(data)], 0),
				"last byte missing":  data[:len(data)-1],
				"payload missing":    data[:bytes.IndexByte(data, '\n')+1],
				"header cut in half": data[:bytes.IndexByte(data, '\n')/2],
			}
			if f.count != "" {
				if !bytes.Contains(data, []byte(f.count)) {
					t.Fatalf("header has no %s", f.count)
				}
				doctored["payload count off by one"] = bytes.Replace(data, []byte(f.count), []byte(f.miscount), 1)
			}
			for what, content := range doctored {
				path := filepath.Join(t.TempDir(), "doctored")
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := f.load(path); !errors.Is(err, f.corrupt) {
					t.Errorf("%s: %v, want %v", what, err, f.corrupt)
				}
			}
		})
	}
}
