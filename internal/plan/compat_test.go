package plan

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
)

// loopDigest digests everything a loop checkpoint holds, in the repository's
// fingerprint convention. Loop checkpoints have no fingerprint of their own;
// the tests need one to compare payloads gob may encode differently.
func loopDigest(ck *loopCheckpoint) uint64 {
	d := durable.NewDigest()
	ints := func(v []int) {
		d.Int(len(v))
		for _, x := range v {
			d.Int(x)
		}
	}
	d.Str(ck.Strategy)
	d.Str(ck.Model)
	d.U64(uint64(ck.Seed))
	d.Int(ck.InjectionsPerFF)
	d.Int(ck.NumFFs)
	d.U64(uint64(ck.CampaignHash))
	d.U64(uint64(ck.FeaturesHash))
	d.U64(uint64(ck.PoolHash))
	d.Int(ck.InitFFs)
	d.Int(ck.RoundFFs)
	d.Int(ck.MaxRounds)
	d.Int(ck.BudgetFFs)
	d.F64(ck.DeltaTol)
	d.F64(ck.CIWidthTol)
	d.Int(ck.Patience)
	d.Int(len(ck.Rounds))
	for _, r := range ck.Rounds {
		ints(r.Selected)
		ints(r.Failures)
		ints(r.Injections)
	}
	return d.Sum()
}

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

// testdata/loop.ckpt was written by the build before the container package
// existed (PR 18's `ffr plan -scenario rrarb/uniform -scale small -rounds 3
// -delta 0.0125 -ci 0.3`), and its digest was computed by that build's
// loader. It must load, digest to the recorded value and re-save to the same
// header line.
func TestLoopCheckpointCompatibility(t *testing.T) {
	const recorded = 0x4840ff12ad778de2
	src := filepath.Join("testdata", "loop.ckpt")
	ck, err := loadLoopCheckpoint(src)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Strategy != "committee" || ck.DeltaTol != 0.0125 || ck.CIWidthTol != 0.3 || len(ck.Rounds) != 3 {
		t.Errorf("loaded strategy %q, tolerances %v/%v, %d rounds", ck.Strategy, ck.DeltaTol, ck.CIWidthTol, len(ck.Rounds))
	}
	if got := loopDigest(ck); got != recorded {
		t.Errorf("digest %#x, recorded %#x", got, uint64(recorded))
	}
	dst := filepath.Join(t.TempDir(), "loop.ckpt")
	if err := saveLoopCheckpoint(dst, ck); err != nil {
		t.Fatal(err)
	}
	if got, want := headerLine(t, dst), headerLine(t, src); !bytes.Equal(got, want) {
		t.Errorf("re-saved header\n got %s\nwant %s", got, want)
	}
	back, err := loadLoopCheckpoint(dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := loopDigest(back); got != recorded {
		t.Errorf("re-saved digest %#x, recorded %#x", got, uint64(recorded))
	}
}

// testdata/removed-{uncertainty,cluster}.ckpt were written by the last build
// that had those strategies (`ffr plan -scenario rrarb/uniform -scale small
// -strategy <s> -rounds 1 -checkpoint …`). A committee loop must refuse to
// resume either as another strategy's state, and leave the file as it was.
func TestLoopRefusesRemovedStrategy(t *testing.T) {
	for _, name := range []string{"uncertainty", "cluster"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "removed-"+name+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "loop.ckpt")
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			loop, err := NewLoop(Config{
				Target: newFakeTarget(249, 128, 1), Strategy: Committee{Members: testCommittee()},
				Model: testModel(), ModelName: "k-NN", Seed: 1, MaxRounds: 1,
				CheckpointPath: path, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loop.Run(); !errors.Is(err, ErrLoopCheckpointMismatch) || !strings.Contains(err.Error(), "strategy differs") {
				t.Errorf("resumed a %s checkpoint: got %v, want a strategy ErrLoopCheckpointMismatch", name, err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("refused checkpoint was rewritten (read error %v)", err)
			}
		})
	}
}
