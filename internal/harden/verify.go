package harden

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fault"
)

// Verification is the outcome of re-measuring a hardened design: the
// advisor's predicted residual FFR next to the campaign-measured one, plus
// the baseline for the improvement claim. FFR is the sum of per-FF FDR.
type Verification struct {
	// PredictedResidualFFR restates the plan's prediction.
	PredictedResidualFFR float64
	// MeasuredResidualFFR sums the measured FDR over every flip-flop of
	// the hardened design (originals and replicas).
	MeasuredResidualFFR float64
	// BaselineFFR sums the measured FDR of the unhardened design.
	BaselineFFR float64
	// HardenedFFs is the number of flip-flops the plan hardened;
	// BaselineNumFFs and HardenedNumFFs count design flip-flops before
	// and after the rewrite (two replicas each).
	HardenedFFs    int
	BaselineNumFFs int
	HardenedNumFFs int
	// BaseFingerprint and HardenedFingerprint are the netlist fingerprints
	// before and after the rewrite; they always differ for a non-empty
	// selection while the golden traces stay bit-identical.
	BaseFingerprint     uint64
	HardenedFingerprint uint64
	// Hardened and Baseline are the raw campaign results.
	Hardened *fault.Result
	Baseline *fault.Result
}

// Improved reports whether the measured residual FFR is strictly below the
// measured baseline FFR.
func (v *Verification) Improved() bool {
	return v.MeasuredResidualFFR < v.BaselineFFR
}

// Verify measures a plan by two campaigns of the fabric's campaign
// description (fabric.BuildCampaign): the hardened one is spec with Harden
// set to the plan's selection — exactly what ffr coord -harden distributes —
// and the baseline is spec unhardened, checkpointing to local.CheckpointPath
// + ".baseline". Before any injection it checks the rewrite invariant on the
// two built campaigns: the netlist fingerprint changes, the golden trace is
// bit-identical. Then it runs each on the local pool (fault.Plan.Run), so
// the improvement and the predictor's calibration are both measured claims.
// Campaigns are checkpointed and resumable per local; ctx cancels between
// chunks with the checkpoint flushed.
func Verify(ctx context.Context, plan *Plan, spec api.CampaignSpec, local fault.RunnerConfig) (*Verification, error) {
	if plan == nil {
		return nil, fmt.Errorf("harden: nil plan")
	}
	sel := plan.SelectedFFs()
	spec.Harden = sel
	hard, err := fabric.BuildCampaign(spec, local)
	if err != nil {
		return nil, fmt.Errorf("harden: hardened campaign: %w", err)
	}
	spec.Harden = nil
	if local.CheckpointPath != "" {
		local.CheckpointPath += ".baseline"
	}
	base, err := fabric.BuildCampaign(spec, local)
	if err != nil {
		return nil, fmt.Errorf("harden: baseline campaign: %w", err)
	}
	v := &Verification{
		PredictedResidualFFR: plan.ResidualFFR,
		HardenedFFs:          len(sel),
		BaselineNumFFs:       base.M.NumFFs(),
		HardenedNumFFs:       hard.M.NumFFs(),
		BaseFingerprint:      base.M.Netlist.Fingerprint(),
		HardenedFingerprint:  hard.M.Netlist.Fingerprint(),
	}
	if len(sel) > 0 && v.HardenedFingerprint == v.BaseFingerprint {
		return nil, fmt.Errorf("harden: TMR rewrite left the netlist fingerprint unchanged")
	}
	if !base.M.Golden.Equal(hard.M.Golden) {
		return nil, fmt.Errorf("harden: hardened golden trace diverges from the original — the rewrite broke fault-free behavior")
	}

	if v.Hardened, err = hard.Plan.Run(ctx); err != nil {
		return nil, fmt.Errorf("harden: hardened campaign: %w", err)
	}
	if v.Baseline, err = base.Plan.Run(ctx); err != nil {
		return nil, fmt.Errorf("harden: baseline campaign: %w", err)
	}
	v.MeasuredResidualFFR, v.BaselineFFR = sumFDR(v.Hardened), sumFDR(v.Baseline)
	return v, nil
}

// sumFDR folds a campaign result into the design FFR (sum of per-FF FDR).
func sumFDR(res *fault.Result) float64 {
	var s float64
	for _, f := range res.FDR {
		s += f
	}
	return s
}
