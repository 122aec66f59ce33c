// Activelearn: the active-learning campaign planner in one page — let the
// model choose where to fault-inject next instead of drawing flip-flops at
// random. The walkthrough builds a reduced MAC study, runs the exhaustive
// campaign once (as the evaluation reference), then pits the committee
// strategy against the random baseline at half the injection budget and
// shows the round-by-round FFR trajectory plus the final quality gap — the
// paper's cost-reduction promise, upgraded with a closed loop.
package main

import (
	"fmt"
	"os"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "activelearn:", err)
		os.Exit(1)
	}
}

func run() error {
	// A small device keeps the walkthrough under a few seconds.
	cfg := repro.DefaultStudyConfig()
	cfg.MAC.FIFODepth = 16
	cfg.MAC.StatWidth = 8
	cfg.MAC.TargetFFs = 0
	cfg.Bench.FIFODepth = 16
	cfg.Bench.Packets = 6
	cfg.Bench.MinPayload = 4
	cfg.Bench.MaxPayload = 6
	cfg.InjectionsPerFF = 16

	study, err := repro.NewStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("device under test: %d flip-flops, %d injections per measured FF\n\n",
		study.NumFFs(), cfg.InjectionsPerFF)

	// The exhaustive campaign is the evaluation reference: the adaptive
	// loops below never see it (their rounds re-measure their own subsets).
	if _, err := study.RunGroundTruth(); err != nil {
		return err
	}

	// Compare committee against the random control under a shared
	// protocol: a held-out evaluation half, half the pool as injection
	// budget, six adaptive rounds. The comparison replays measurements from
	// the ground truth — bit-identical to re-injecting, at zero simulation
	// cost.
	spec, err := repro.FindModel("k-NN")
	if err != nil {
		return err
	}
	cmp, err := study.CompareAdaptiveStrategies(repro.AdaptiveStrategyNames(), spec, 0.5, 6, 2)
	if err != nil {
		return err
	}
	fmt.Printf("full campaign on the %d-FF pool: R²=%.3f on %d held-out flip-flops\n\n",
		cmp.PoolFFs, cmp.FullR2, cmp.EvalFFs)
	fmt.Printf("%-12s %10s %12s %10s %10s\n", "strategy", "measured", "injections", "R²", "gap")
	for _, o := range cmp.Outcomes {
		fmt.Printf("%-12s %10d %11.1f%% %10.3f %+10.3f\n",
			o.Strategy, o.MeasuredFFs, 100*o.InjectionFrac, o.R2, cmp.FullR2-o.R2)
	}

	// The same loop as a live campaign: watch the FFR estimate converge
	// round by round as the committee re-aims each batch.
	fmt.Printf("\nlive committee loop (budget 50%% of all flip-flops):\n")
	adaptive, err := repro.NewAdaptiveStudy(study, repro.AdaptiveStudyConfig{
		Strategy:  repro.StrategyCommittee,
		Model:     spec,
		Seed:      2,
		BudgetFFs: study.NumFFs() / 2,
		MaxRounds: 8,
		OnRound: func(r repro.AdaptiveRound) {
			fmt.Printf("  round %d: %3d FFs measured, FFR estimate %.4f (delta %.4f)\n",
				r.Index, r.MeasuredFFs, r.FFR, r.Delta)
		},
	})
	if err != nil {
		return err
	}
	res, err := adaptive.Run()
	if err != nil {
		return err
	}
	gt, err := study.FDR()
	if err != nil {
		return err
	}
	var trueFFR float64
	for _, v := range gt {
		trueFFR += v
	}
	trueFFR /= float64(len(gt))
	fmt.Printf("\nfinal: FFR %.4f vs exhaustive truth %.4f (error %+.4f) at %.1f%% of the injections\n",
		res.FFR, trueFFR, res.FFR-trueFFR,
		100*float64(res.TotalInjections)/float64(study.NumFFs()*cfg.InjectionsPerFF))
	fmt.Println("\nthe committee spends the budget where its models disagree — random spends it anywhere;")
	fmt.Println("same model, same budget, better estimate.")
	return nil
}
