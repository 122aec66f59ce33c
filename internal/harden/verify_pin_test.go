package harden_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/harden"
)

// TestVerifyResumesPinnedCheckpoints resumes the two verify campaigns that
// an earlier build wrote for
//
//	ffr corpus -sweep -scenario alupipe/randomops -n 16 -out dir
//	ffr harden -load dir/alupipe-randomops.ffrm -budget 0.5 -verify -n 16 -checkpoint verify.ckpt
//
// (testdata/verify.ckpt and testdata/verify.ckpt.baseline). Both files must
// be adopted whole — same plan, golden trace, failure criterion and shard
// geometry as this build's campaigns — and the Verification must carry the
// values that run printed, to the bit. Do not regenerate the files with the
// code under test.
func TestVerifyResumesPinnedCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a ground-truth campaign")
	}
	const id = "alupipe/randomops"
	sc, err := corpus.Find(id)
	if err != nil {
		t.Fatal(err)
	}
	// The artifact ffr corpus -sweep trains: k-NN on the 16-injection
	// ground truth at small scale, seed 1.
	s, err := core.NewCorpusStudy(sc, core.CorpusStudyConfig{Scale: corpus.ScaleSmall, InjectionsPerFF: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunGroundTruth(); err != nil {
		t.Fatal(err)
	}
	spec, err := core.FindModel("k-NN")
	if err != nil {
		t.Fatal(err)
	}
	art, err := s.FitArtifact("k-NN@"+id, spec, core.TableRow{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := harden.Advise(art, s.Materialized, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for _, name := range []string{"verify.ckpt", "verify.ckpt.baseline"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v, err := verifyResumed(context.Background(), plan, id, 16, filepath.Join(dir, "verify.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*fault.Result{"hardened": v.Hardened, "baseline": v.Baseline} {
		if res.ResumedChunks != res.Chunks {
			t.Errorf("%s campaign resumed %d of %d chunks from the pinned checkpoint", name, res.ResumedChunks, res.Chunks)
		}
	}

	type pin struct {
		name      string
		got, want uint64
	}
	for _, p := range []pin{
		{"HardenedFFs", uint64(v.HardenedFFs), 48},
		{"BaselineNumFFs", uint64(v.BaselineNumFFs), 85},
		{"HardenedNumFFs", uint64(v.HardenedNumFFs), 181},
		{"BaseFingerprint", v.BaseFingerprint, 0xdc3a99ede103c514},
		{"HardenedFingerprint", v.HardenedFingerprint, 0x3e097e8116b3c972},
		{"PredictedResidualFFR", math.Float64bits(v.PredictedResidualFFR), 0x4018400000000000},
		{"MeasuredResidualFFR", math.Float64bits(v.MeasuredResidualFFR), 0x4018400000000000},
		{"BaselineFFR", math.Float64bits(v.BaselineFFR), 0x4049f80000000000},
	} {
		if p.got != p.want {
			t.Errorf("%s = %#x, pinned %#x", p.name, p.got, p.want)
		}
	}
}
