// Command ffrinject runs the paper's flat statistical fault-injection
// campaign (Section IV-A): SEUs in every flip-flop at random cycles of the
// active window, classified against the golden run, yielding per-flip-flop
// Functional De-Rating factors.
//
// The campaign executes on the sharded runner: the plan is split into
// fixed-size chunks, and with -checkpoint the completed-chunk state is
// periodically persisted so an interrupted campaign can be picked up with
// -resume, producing bit-identical results to an uninterrupted run.
//
// Usage:
//
//	ffrinject [-n 170] [-seed 2019] [-workers 0] [-csv fdr.csv]
//	          [-checkpoint state.ffr] [-resume] [-shards 0] [-progress]
//	          [-snapshot-every 0] [-schedule clustered|plan]
//	          [-fault-model seu|mbu:N|stuck0:D|stuck1:D]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	          [-log-level info] [-log-format text] [-metrics-addr :0]
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ffrinject:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n          = flag.Int("n", repro.PaperInjections, "injections per flip-flop")
		seed       = flag.Int64("seed", 2019, "injection plan seed")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		csvOut     = flag.String("csv", "", "write per-FF results to this CSV file")
		checkpoint = flag.String("checkpoint", "", "periodically save campaign state to this file")
		resume     = flag.Bool("resume", false, "resume from -checkpoint if it exists")
		shards     = flag.Int("shards", 0, "split the plan into about this many shard chunks (rounded to whole 64-lane batches; must match on -resume; 0 = default chunk size)")
		progress   = flag.Bool("progress", false, "print live campaign progress to stderr")
		snapEvery  = flag.Int("snapshot-every", 0, "golden snapshot cadence in cycles for the incremental engine (0 = default)")
		schedule   = flag.String("schedule", "", "batch-packing schedule: clustered or plan (default: clustered, adopting a resumed checkpoint's schedule)")
		faultModel = flag.String("fault-model", "", "fault model: seu (default), mbu:N, stuck0:D, stuck1:D, each with optional @start-end window (e.g. mbu:3, stuck0:8@0.25-0.75); falls back to FFR_FAULT_MODEL")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
		mAddr      = flag.String("metrics-addr", "", "serve campaign /metrics and /debug/pprof/ on this address during the run (off when empty)")
		logFlags   = cli.RegisterLog()
	)
	flag.Parse()

	if err := cli.Check(
		cli.NoArgs("ffrinject"),
		cli.MinInt("ffrinject", "n", *n, 1),
		cli.MinInt("ffrinject", "workers", *workers, 0),
		cli.MinInt("ffrinject", "shards", *shards, 0),
		cli.MinInt("ffrinject", "snapshot-every", *snapEvery, 0),
		cli.Requires("ffrinject", "resume", "checkpoint", !*resume || *checkpoint != ""),
		cli.OneOf("ffrinject", "schedule", *schedule,
			"", string(fault.ScheduleClustered), string(fault.SchedulePlan)),
	); err != nil {
		return err
	}
	fm := *faultModel
	if fm == "" {
		fm = os.Getenv("FFR_FAULT_MODEL")
	}
	model, err := fault.ParseModel(fm)
	if err != nil {
		return cli.UsageErrorf("ffrinject", "bad -fault-model: %v", err)
	}
	logger, err := logFlags.Logger("ffrinject")
	if err != nil {
		return err
	}
	stopProfiling, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiling()
	reg := obs.NewRegistry()
	stopMetrics, err := cli.ServeMetrics("ffrinject", *mAddr, reg, logger)
	if err != nil {
		return err
	}
	defer stopMetrics()

	cfg := repro.DefaultStudyConfig()
	cfg.InjectionsPerFF = *n
	cfg.CampaignSeed = *seed
	cfg.Workers = *workers
	cfg.Checkpoint = *checkpoint
	cfg.Resume = *resume
	cfg.Shards = *shards
	cfg.SnapshotEvery = *snapEvery
	cfg.Schedule = fault.Schedule(*schedule)
	cfg.Model = model
	cfg.Metrics = reg
	cfg.Logger = logger
	if *progress {
		cfg.Progress = func(p repro.CampaignProgress) {
			fmt.Fprintf(os.Stderr, "\rinjected %d/%d jobs (%.1f%%), chunks %d/%d, elapsed %s, eta %s   ",
				p.JobsDone, p.JobsTotal, 100*float64(p.JobsDone)/float64(p.JobsTotal),
				p.ChunksDone, p.ChunksTotal,
				p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		}
	}
	study, err := repro.NewStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("device: %d flip-flops, testbench: %d cycles (%d active), fault model: %s\n",
		study.NumFFs(), study.Bench.Stim.Cycles(), study.Bench.ActiveCycles, model)

	// Ctrl-C / SIGTERM interrupts the campaign gracefully: in-flight
	// chunks finish, the checkpoint is flushed, and the run can be picked
	// up with -resume. Unregistering on the first signal restores default
	// delivery, so a second Ctrl-C force-quits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	start := time.Now()
	res, err := study.RunGroundTruthContext(ctx)
	if err != nil {
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		if errors.Is(err, repro.ErrCampaignInterrupted) && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "ffrinject: campaign state saved to %s; rerun with -resume to continue\n", *checkpoint)
		}
		return err
	}
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Printf("campaign finished in %v (%d chunks", time.Since(start).Round(time.Millisecond), res.Chunks)
	if res.ResumedChunks > 0 {
		fmt.Printf(", %d resumed from checkpoint", res.ResumedChunks)
	}
	if res.SimulatedCycles > 0 && res.SimulatedCycles < res.ReplayCycles {
		fmt.Printf(", %d of %d engine cycles simulated — %.2fx saved by the incremental engine",
			res.SimulatedCycles, res.ReplayCycles,
			float64(res.ReplayCycles)/float64(res.SimulatedCycles))
	}
	fmt.Printf(")\n\n")
	if err := repro.RenderCampaign(os.Stdout, res); err != nil {
		return err
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, study, res); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d rows to %s\n", study.NumFFs(), *csvOut)
	}
	return nil
}

func writeCSV(path string, study *repro.Study, res *repro.CampaignResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"instance", "injections", "failures", "fdr", "ci95_lo", "ci95_hi"}); err != nil {
		return err
	}
	for ff := 0; ff < study.NumFFs(); ff++ {
		cell := study.Netlist.Cells[study.Program.FFCell(ff)]
		lo, hi := fault.WilsonInterval(res.Failures[ff], res.Injections[ff], 1.96)
		if err := cw.Write([]string{
			cell.Name,
			strconv.Itoa(res.Injections[ff]),
			strconv.Itoa(res.Failures[ff]),
			strconv.FormatFloat(res.FDR[ff], 'g', -1, 64),
			strconv.FormatFloat(lo, 'g', -1, 64),
			strconv.FormatFloat(hi, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
