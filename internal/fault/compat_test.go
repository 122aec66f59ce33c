package fault_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// headerLine returns the first line of a file, newline included.
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
// package existed (PR 18's `ffr inject -n 1 -shards 4` and SaveCheckpoint),
// and the fingerprints beside them were printed by that build. Each must
// load, fingerprint to the recorded value and re-save to the same header
// line; gob writes the chunk map in no fixed order, so the payloads compare
// by fingerprint.
func TestCheckpointCompatibility(t *testing.T) {
	for _, tc := range []struct {
		file            string
		fingerprint     uint64
		schedule, model string
		chunks          int
	}{
		{"campaign.ckpt", 0x62fd61fd74b5cece, "clustered", "seu", 4},
		// No schedule and no fault_model in the header: the format from
		// before schedules and fault models existed.
		{"campaign-legacy.ckpt", 0x605e75daa8571772, "", "", 2},
	} {
		t.Run(tc.file, func(t *testing.T) {
			src := filepath.Join("testdata", tc.file)
			ck, err := fault.LoadCheckpoint(src)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Schedule != tc.schedule || ck.Model != tc.model || len(ck.Chunks) != tc.chunks {
				t.Errorf("loaded schedule %q, model %q, %d chunks; want %q, %q, %d",
					ck.Schedule, ck.Model, len(ck.Chunks), tc.schedule, tc.model, tc.chunks)
			}
			if got := ck.Fingerprint(); got != tc.fingerprint {
				t.Errorf("fingerprint %#x, recorded %#x", got, tc.fingerprint)
			}
			dst := filepath.Join(t.TempDir(), tc.file)
			if err := fault.SaveCheckpoint(dst, ck); err != nil {
				t.Fatal(err)
			}
			if got, want := headerLine(t, dst), headerLine(t, src); !bytes.Equal(got, want) {
				t.Errorf("re-saved header\n got %s\nwant %s", got, want)
			}
			back, err := fault.LoadCheckpoint(dst)
			if err != nil {
				t.Fatal(err)
			}
			if got := back.Fingerprint(); got != tc.fingerprint {
				t.Errorf("re-saved fingerprint %#x, recorded %#x", got, tc.fingerprint)
			}
		})
	}
}
