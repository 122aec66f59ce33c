package fault_test

import (
	"bytes"
	"errors"
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
// and the fingerprint beside campaign.ckpt was printed by that build. It
// must load, fingerprint to the recorded value and re-save to the same
// header line; gob writes the chunk map in no fixed order, so the payloads
// compare by fingerprint. campaign-legacy.ckpt has neither schedule nor
// fault_model in its header: the plan-order dialect from before clustered
// packing and fault models, which this build refuses.
func TestCheckpointCompatibility(t *testing.T) {
	t.Run("campaign.ckpt", func(t *testing.T) {
		const fingerprint = 0x62fd61fd74b5cece
		src := filepath.Join("testdata", "campaign.ckpt")
		ck, err := fault.LoadCheckpoint(src)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Schedule != "clustered" || ck.Model != "seu" || len(ck.Chunks) != 4 {
			t.Errorf("loaded schedule %q, model %q, %d chunks; want clustered, seu, 4",
				ck.Schedule, ck.Model, len(ck.Chunks))
		}
		if got := ck.Fingerprint(); got != fingerprint {
			t.Errorf("fingerprint %#x, recorded %#x", got, uint64(fingerprint))
		}
		dst := filepath.Join(t.TempDir(), "campaign.ckpt")
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
		if got := back.Fingerprint(); got != fingerprint {
			t.Errorf("re-saved fingerprint %#x, recorded %#x", got, uint64(fingerprint))
		}
	})
	t.Run("campaign-legacy.ckpt", func(t *testing.T) {
		if _, err := fault.LoadCheckpoint(filepath.Join("testdata", "campaign-legacy.ckpt")); !errors.Is(err, fault.ErrCheckpointVersion) {
			t.Fatalf("legacy checkpoint: %v, want ErrCheckpointVersion", err)
		}
	})
}
