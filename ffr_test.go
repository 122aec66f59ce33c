package repro_test

import (
	"errors"
	"testing"

	"repro"
)

func TestPublicSurface(t *testing.T) {
	if len(repro.PaperModels()) != 3 {
		t.Fatal("PaperModels must expose the three Table I rows")
	}
	if len(repro.ExtendedModels()) != 4 {
		t.Fatal("ExtendedModels must expose the four Section V models")
	}
	if repro.PaperCVSplits != 10 || repro.PaperTrainFrac != 0.5 {
		t.Fatal("paper protocol constants wrong")
	}
	if len(repro.PaperLearningFracs()) < 5 {
		t.Fatal("learning fractions too sparse")
	}
	if _, err := repro.FindModel("SVR w/ RBF Kernel"); err != nil {
		t.Fatalf("FindModel: %v", err)
	}
	cfg := repro.DefaultStudyConfig()
	if cfg.InjectionsPerFF != repro.PaperInjections {
		t.Fatalf("DefaultStudyConfig injections = %d", cfg.InjectionsPerFF)
	}
}

// TestCampaignBudget drives every entry point that accepts an injection
// budget: zero means the scenario's default, a positive budget is taken as
// is, and a negative one is ErrCampaignBudget from all of them (it used to
// be a silent default from NewCorpusStudy, an untyped error from the fabric
// spec and a makeslice panic from HardenVerify, which now resolves its
// budget by BuildDistributedCampaign).
func TestCampaignBudget(t *testing.T) {
	sc, err := repro.FindCorpusScenario("rrarb/uniform")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(n int) repro.DistributedCampaignSpec {
		return repro.DistributedCampaignSpec{Scenario: sc.ID(), Scale: "small", Seed: 1, InjectionsPerFF: n}
	}
	entries := []struct {
		name   string
		budget func(n int) (int, error) // the budget the entry point resolved n to
	}{
		{"NewCorpusStudy", func(n int) (int, error) {
			s, err := repro.NewCorpusStudy(sc, repro.CorpusStudyConfig{Scale: repro.CorpusScaleSmall, InjectionsPerFF: n})
			if err != nil {
				return 0, err
			}
			return s.Config.InjectionsPerFF, nil
		}},
		{"ResolveDistributedCampaignSpec", func(n int) (int, error) {
			resolved, err := repro.ResolveDistributedCampaignSpec(spec(n))
			return resolved.InjectionsPerFF, err
		}},
		{"BuildDistributedCampaign", func(n int) (int, error) {
			camp, err := repro.BuildDistributedCampaign(spec(n), repro.CampaignRunnerConfig{})
			if err != nil {
				return 0, err
			}
			return camp.Plan.TotalJobs() / camp.M.NumFFs(), nil
		}},
	}
	for _, e := range entries {
		for n, want := range map[int]int{0: sc.Entry.Defaults.InjectionsPerFF, 3: 3} {
			if got, err := e.budget(n); err != nil || got != want {
				t.Errorf("%s: budget %d resolved to %d (%v), want %d", e.name, n, got, err, want)
			}
		}
		for _, n := range []int{-1, -5} {
			if _, err := e.budget(n); !errors.Is(err, repro.ErrCampaignBudget) {
				t.Errorf("%s: budget %d: error %v, want ErrCampaignBudget", e.name, n, err)
			}
		}
	}
}
