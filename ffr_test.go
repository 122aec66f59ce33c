package repro_test

import (
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
