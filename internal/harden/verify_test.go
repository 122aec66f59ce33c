package harden_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/corpus"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/features"
	"repro/internal/harden"
	"repro/internal/ml/knn"
	"repro/internal/persist"
)

// acceptanceCase pins one scenario of the end-to-end acceptance claim:
// at a 50% area budget the verify campaign on the TMR-rewritten netlist
// must measure residual FFR strictly below the unhardened FFR, and the
// advisor's prediction must land within 2x of the measurement.
type acceptanceCase struct {
	id   string
	n    int   // injections per FF for both ground truth and verify
	seed int64 // materialization seed
}

// trainTruthModel runs the scenario's ground-truth campaign and fits a 1-NN
// on (features, measured FDR) — the model memorizes the training rows, so
// the advisor's scores are the measured criticalities and the test isolates
// the harden pipeline from model generalization error.
func trainTruthModel(t *testing.T, m *corpus.Materialized, n int, cseed int64) *persist.Artifact {
	t.Helper()
	runner, err := m.Runner(fault.RunnerConfig{})
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	res, err := runner.RunContext(context.Background(), m.Jobs(fault.Model{}, n, cseed))
	if err != nil {
		t.Fatalf("ground-truth campaign: %v", err)
	}
	model := knn.New(1)
	if err := model.Fit(m.Features.Rows, res.FDR); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	art := persist.New("truth@"+m.Scenario.ID(), model, features.Names())
	art.Circuit = m.Scenario.Entry.Name
	art.Workload = m.Scenario.Workload.Name
	return art
}

// TestHardenAcceptance is the PR's headline claim, pinned deterministically
// on two corpus scenarios (scale small, fixed seeds): advise at a 50% area
// budget, TMR-rewrite, re-run the campaign, and require a strict measured
// improvement with the prediction within 2x of the measurement.
func TestHardenAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four fault campaigns")
	}
	cases := []acceptanceCase{
		{id: "alupipe/randomops", n: 16, seed: 1},
		{id: "rrarb/uniform", n: 16, seed: 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			sc, err := corpus.Find(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			cseed := sc.Entry.Defaults.CampaignSeed
			m, err := sc.Materialize(corpus.ScaleSmall, tc.seed)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			art := trainTruthModel(t, m, tc.n, cseed)

			plan, err := harden.Advise(art, m, 0.5)
			if err != nil {
				t.Fatalf("Advise: %v", err)
			}
			if plan.BaseFFR <= 0 {
				t.Fatalf("scenario predicts zero base FFR; campaign budget n=%d too small", tc.n)
			}
			if len(plan.Selected) == 0 || len(plan.Selected) == m.NumFFs() {
				t.Fatalf("50%% budget selected %d of %d FFs; not a selective plan", len(plan.Selected), m.NumFFs())
			}
			if plan.UsedArea > 0.5*plan.TotalArea+1e-9 {
				t.Fatalf("plan used %v of %v area, over the 50%% budget", plan.UsedArea, plan.TotalArea)
			}

			v, err := harden.Verify(context.Background(), plan, api.CampaignSpec{
				Scenario:        tc.id,
				Scale:           corpus.ScaleSmall.String(),
				Seed:            tc.seed,
				InjectionsPerFF: tc.n,
				CampaignSeed:    cseed,
			}, fault.RunnerConfig{})
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			t.Logf("%s: baseline FFR %.4f, measured residual %.4f, predicted residual %.4f (%d of %d FFs hardened)",
				tc.id, v.BaselineFFR, v.MeasuredResidualFFR, v.PredictedResidualFFR,
				v.HardenedFFs, v.BaselineNumFFs)

			if v.BaselineFFR <= 0 {
				t.Fatal("baseline campaign measured zero FFR; acceptance claim is vacuous")
			}
			if !v.Improved() {
				t.Fatalf("measured residual %.4f is not strictly below baseline %.4f",
					v.MeasuredResidualFFR, v.BaselineFFR)
			}
			if v.MeasuredResidualFFR <= 0 {
				t.Fatal("measured residual is zero; the 2x calibration bound is vacuous")
			}
			lo, hi := v.MeasuredResidualFFR/2, v.MeasuredResidualFFR*2
			if v.PredictedResidualFFR < lo || v.PredictedResidualFFR > hi {
				t.Fatalf("predicted residual %.4f outside 2x band [%.4f, %.4f] of measured %.4f",
					v.PredictedResidualFFR, lo, hi, v.MeasuredResidualFFR)
			}
		})
	}
}

// verifyResumed verifies plan on scenario id at small scale and seed 1 with
// n injections per flip-flop, resuming the hardened campaign from checkpoint
// and the baseline from checkpoint + ".baseline" — what ffr harden -verify
// -n n -checkpoint checkpoint -resume runs.
func verifyResumed(ctx context.Context, plan *harden.Plan, id string, n int, checkpoint string) (*harden.Verification, error) {
	return harden.Verify(ctx, plan, api.CampaignSpec{
		Scenario:        id,
		Scale:           corpus.ScaleSmall.String(),
		Seed:            1,
		InjectionsPerFF: n,
	}, fault.RunnerConfig{CheckpointPath: checkpoint, Resume: true})
}

// TestVerifyRunsCoordCampaign: the hardened campaign Verify runs is the one
// ffr coord -harden distributes, fabric.BuildCampaign of the spec with Harden
// set to the plan's selection. The checkpoint Verify writes for it carries
// that campaign's plan and golden fingerprints, and its fingerprint is the
// one a single-node run of the coordinator's campaign reaches.
func TestVerifyRunsCoordCampaign(t *testing.T) {
	ctx := context.Background()
	spec := api.CampaignSpec{Scenario: "rrarb/uniform", Seed: 3, InjectionsPerFF: 4, CampaignSeed: 5, ChunkJobs: 128}
	plan := &harden.Plan{Selected: []harden.Candidate{{FF: 5}, {FF: 0}, {FF: 2}}}
	ckpt := filepath.Join(t.TempDir(), "verify.ckpt")
	if _, err := harden.Verify(ctx, plan, spec, fault.RunnerConfig{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}

	spec.Harden = []int{0, 2, 5}
	coord, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := coord.SingleNodeFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := fault.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.PlanHash.String() != coord.PlanHashHex() || ck.GoldenHash.String() != coord.GoldenHashHex() {
		t.Errorf("verify campaign has plan %v, golden %v; coord -harden campaign has plan %s, golden %s",
			ck.PlanHash, ck.GoldenHash, coord.PlanHashHex(), coord.GoldenHashHex())
	}
	if got := ck.Fingerprint(); got != want {
		t.Errorf("verify checkpoint fingerprint %x, coord -harden campaign %x", got, want)
	}
}

// TestVerifyValidation covers the guard rails.
func TestVerifyValidation(t *testing.T) {
	if _, err := harden.Verify(context.Background(), nil, api.CampaignSpec{}, fault.RunnerConfig{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := harden.Verify(context.Background(), &harden.Plan{}, api.CampaignSpec{}, fault.RunnerConfig{}); err == nil {
		t.Fatal("missing scenario accepted")
	}
}
