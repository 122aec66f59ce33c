package main

import (
	"io"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/features"
)

// runFeat extracts the paper's 25 per-flip-flop features (Section III-B)
// from the MAC10GE-lite design and writes them as CSV, optionally joined
// with ground-truth FDR targets from a fault campaign.
func runFeat(c *cli.Cmd) error {
	var (
		out     = c.Flags.String("o", "", "output file (default stdout)")
		withFDR = c.Flags.Bool("fdr", false, "run the fault campaign and append the fdr column")
		n       = c.Flags.Int("n", core.PaperInjections, "injections per flip-flop when -fdr is set")
		tel     = c.Telemetry(0)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("n", *n, 1),
		cli.Creatable("o", *out),
	); err != nil {
		return err
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()
	study, err := macStudy(*n, tel)
	if err != nil {
		return err
	}
	var target []float64
	if *withFDR {
		res, err := study.RunGroundTruthContext(c.Ctx)
		if err != nil {
			return err
		}
		target = res.FDR
	}
	return writeTo(c, *out, func(w io.Writer) error {
		return features.WriteCSV(w, study.Features, target)
	})
}
