package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
)

// TestStudyRejectsSET: per-flip-flop FDR features are meaningless for
// combinational targets, so study construction must refuse the SET model on
// both the MAC and corpus fronts.
func TestStudyRejectsSET(t *testing.T) {
	set := fault.Model{Kind: fault.KindSET}
	cfg := DefaultStudyConfig()
	cfg.Model = set
	if _, err := NewStudy(cfg); err == nil {
		t.Fatal("NewStudy accepted the SET model")
	}
	sc, err := corpus.Find("mac10ge/loopback")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCorpusStudy(sc, CorpusStudyConfig{Model: set}); err == nil {
		t.Fatal("NewCorpusStudy accepted the SET model")
	}
	bad := fault.Model{Kind: "neutrino"}
	cfg = DefaultStudyConfig()
	cfg.Model = bad
	if _, err := NewStudy(cfg); err == nil {
		t.Fatal("NewStudy accepted an unknown model kind")
	}
}

// TestCorpusStudyModelChangesGroundTruth: the model threads all the way
// through a corpus study's ground truth — an MBU campaign must not
// reproduce the SEU failure profile.
func TestCorpusStudyModelChangesGroundTruth(t *testing.T) {
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec string) []int {
		t.Helper()
		m, err := fault.ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		study, err := NewCorpusStudy(sc, CorpusStudyConfig{InjectionsPerFF: 3, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := study.RunGroundTruth()
		if err != nil {
			t.Fatal(err)
		}
		return res.Failures
	}
	seu := run("seu")
	mbu := run("mbu:4")
	same := len(seu) == len(mbu)
	if same {
		for i := range seu {
			if seu[i] != mbu[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("MBU ground truth equals SEU ground truth — model not threaded")
	}
}
