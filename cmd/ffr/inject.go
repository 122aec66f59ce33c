package main

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
)

// runInject runs the paper's flat statistical fault-injection campaign
// (Section IV-A): faults in every flip-flop at random cycles of the active
// window, classified against the golden run, yielding per-flip-flop
// Functional De-Rating factors.
//
// The plan is split into fixed-size chunks, and with -checkpoint the
// completed-chunk state is periodically persisted so an interrupted
// campaign can be picked up with -resume, bit-identical to an
// uninterrupted run.
func runInject(c *cli.Cmd) error {
	var (
		campaign   = c.Campaign(cli.Injections | cli.Chunk | cli.CampaignSeed | cli.Workers | cli.Checkpoint)
		csvOut     = c.Flags.String("csv", "", "write per-FF results to this CSV file")
		progress   = c.Flags.Bool("progress", false, "print live campaign progress to stderr")
		faultModel = c.FaultModel("fault model: seu, mbu:N, stuck0:D, stuck1:D, each with optional @start-end window (e.g. mbu:3, stuck0:8@0.25-0.75)")
		tel        = c.Telemetry(cli.Metrics | cli.Profile)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := campaign.Check(); err != nil {
		return err
	}
	model, err := faultModel()
	if err != nil {
		return err
	}
	if err := cli.Creatable("csv", *csvOut); err != nil {
		return err
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	cfg := core.DefaultStudyConfig()
	cfg.InjectionsPerFF = campaign.InjectionsPerFF
	cfg.CampaignSeed = campaign.CampaignSeed
	cfg.Workers = campaign.Workers
	cfg.Checkpoint = campaign.Checkpoint
	cfg.Resume = campaign.Resume
	cfg.ChunkJobs = campaign.ChunkJobs
	cfg.Model = model
	cfg.Metrics = tel.Metrics
	cfg.Logger = tel.Logger
	if *progress {
		cfg.Progress = func(p fault.Progress) {
			fmt.Fprintf(c.Stderr, "\rinjected %d/%d jobs (%.1f%%), chunks %d/%d, elapsed %s, eta %s   ",
				p.JobsDone, p.JobsTotal, 100*float64(p.JobsDone)/float64(p.JobsTotal),
				p.ChunksDone, p.ChunksTotal,
				p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		}
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	c.Printf("device: %d flip-flops, testbench: %d cycles (%d active), fault model: %s\n",
		study.NumFFs(), study.Bench.Stim.Cycles(), study.Bench.ActiveCycles, model)

	// On cancellation in-flight chunks finish and the checkpoint is
	// flushed, so the run can be picked up with -resume.
	start := time.Now()
	res, err := study.RunGroundTruthContext(c.Ctx)
	if *progress {
		fmt.Fprintln(c.Stderr)
	}
	if err != nil {
		if errors.Is(err, fault.ErrInterrupted) && campaign.Checkpoint != "" {
			fmt.Fprintf(c.Stderr, "inject: campaign state saved to %s; rerun with -resume to continue\n", campaign.Checkpoint)
		}
		return err
	}
	c.Printf("campaign finished in %v (%d chunks", time.Since(start).Round(time.Millisecond), res.Chunks)
	if res.ResumedChunks > 0 {
		c.Printf(", %d resumed from checkpoint", res.ResumedChunks)
	}
	if res.SimulatedCycles > 0 && res.SimulatedCycles < res.ReplayCycles {
		c.Printf(", %d of %d engine cycles simulated — %.2fx saved by snapshot fast-forward and early exit",
			res.SimulatedCycles, res.ReplayCycles,
			float64(res.ReplayCycles)/float64(res.SimulatedCycles))
	}
	c.Printf(")\n\n")
	if err := core.RenderCampaign(c.Stdout, res); err != nil {
		return err
	}

	if *csvOut == "" {
		return nil
	}
	rows := make([][]string, study.NumFFs())
	for ff := range rows {
		lo, hi := fault.WilsonInterval(res.Failures[ff], res.Injections[ff], 1.96)
		rows[ff] = []string{
			study.Netlist.Cells[study.Program.FFCell(ff)].Name,
			strconv.Itoa(res.Injections[ff]),
			strconv.Itoa(res.Failures[ff]),
			ftoa(res.FDR[ff]), ftoa(lo), ftoa(hi),
		}
	}
	if err := cli.WriteCSV(*csvOut, []string{"instance", "injections", "failures", "fdr", "ci95_lo", "ci95_hi"}, rows); err != nil {
		return err
	}
	c.Printf("\nwrote %d rows to %s\n", study.NumFFs(), *csvOut)
	return nil
}
