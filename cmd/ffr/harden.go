package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/harden"
	"repro/internal/persist"
)

// runHarden is the selective-mitigation advisor: it loads a trained model
// artifact, scores every flip-flop of a corpus scenario, ranks them by
// predicted criticality, and emits the TMR hardening plan that fits an area
// budget — then optionally verifies the plan by TMR-rewriting the netlist
// and re-running the fault campaign, reporting measured vs. predicted
// residual FFR.
//
// Without -scenario the artifact's training-scenario tag is used, and
// refused at a -scale/-seed whose circuit is not the one the model was
// trained on (harden.Materialize). The selected flip-flop list prints in
// ffr coord -harden form, so a verified plan can be re-measured at scale on
// the distributed fabric.
func runHarden(c *cli.Cmd) error {
	var (
		load     = c.Flags.String("load", "", "model artifact to advise with (required)")
		budget   = c.Flags.Float64("budget", 0.5, "area budget as a fraction of full-TMR area")
		csvPath  = c.Flags.String("csv", "", "write the full ranking as CSV to this file")
		verify   = c.Flags.Bool("verify", false, "TMR-rewrite the netlist and re-measure residual FFR by campaign")
		campaign = c.CampaignSpec("corpus scenario (\"family/workload\"; default: the artifact's training scenario)", cli.Workers)
		tel      = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.NonNegFloat("budget", *budget),
		c.OnlyWith("-verify", *verify, "n", "campaign-seed", "workers", "chunk", "checkpoint", "resume"),
	); err != nil {
		return err
	}
	spec, local, err := campaign()
	if err != nil {
		return err
	}
	if *load == "" {
		return c.UsageErrorf("-load is required")
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	art, err := persist.Load(*load)
	if err != nil {
		return err
	}
	scl, err := corpus.ParseScale(spec.Scale)
	if err != nil {
		return err
	}
	m, err := harden.Materialize(art, spec.Scenario, scl, spec.Seed)
	switch {
	case errors.Is(err, harden.ErrNoScenarioTag):
		return c.UsageErrorf("artifact %q carries no scenario tag; -scenario is required", art.Name)
	case errors.Is(err, harden.ErrUntrainedCircuit):
		return fmt.Errorf("%w; pass the training run's -scale and -seed", err)
	case err != nil:
		return err
	}
	spec.Scenario = m.Scenario.ID()
	plan, err := harden.Advise(art, m, *budget)
	if err != nil {
		return err
	}
	c.Printf("harden: %s on %s/%s: %d of %d FFs within budget %.2f (area %.1f of %.1f units)\n",
		plan.Model, plan.Circuit, plan.Workload, len(plan.Selected), m.NumFFs(), plan.Budget,
		plan.UsedArea, plan.TotalArea)
	c.Printf("harden: predicted FFR %.4f -> %.4f residual\n", plan.BaseFFR, plan.ResidualFFR)
	if sel := plan.SelectedFFs(); len(sel) > 0 {
		parts := make([]string, len(sel))
		for i, ff := range sel {
			parts[i] = strconv.Itoa(ff)
		}
		c.Printf("harden: selection for ffr coord: -harden %s\n", strings.Join(parts, ","))
	}

	if *csvPath != "" {
		if err := writeTo(c, *csvPath, func(w io.Writer) error { return harden.WriteCSV(w, plan) }); err != nil {
			return err
		}
		c.Printf("harden: wrote ranking to %s\n", *csvPath)
	}
	if !*verify {
		return nil
	}
	local.Logger = tel.Logger
	v, err := harden.Verify(c.Ctx, plan, spec, local)
	if err != nil {
		return err
	}
	// The trailing improved / predicted_within_2x tokens are the
	// machine-readable verdicts.
	c.Printf("harden: verify: %d FFs hardened (%d -> %d in design), fingerprint %x -> %x\n",
		v.HardenedFFs, v.BaselineNumFFs, v.HardenedNumFFs, v.BaseFingerprint, v.HardenedFingerprint)
	within2x := v.PredictedResidualFFR <= 2*v.MeasuredResidualFFR+1e-12 &&
		v.MeasuredResidualFFR <= 2*v.PredictedResidualFFR+1e-12
	c.Printf("harden: verify: baseline_ffr=%.4f measured_residual=%.4f predicted_residual=%.4f improved=%t predicted_within_2x=%t\n",
		v.BaselineFFR, v.MeasuredResidualFFR, v.PredictedResidualFFR,
		v.Improved(), within2x)
	return nil
}
