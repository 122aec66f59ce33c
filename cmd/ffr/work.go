package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/fabric"
)

// runWork is the distributed-campaign worker: it joins an ffr coord
// coordinator, rebuilds the campaign locally from the wire spec (verifying
// plan and golden-trace fingerprints), then leases shard chunks, simulates
// them and posts back failure masks until the campaign completes.
//
// Workers never receive jobs over the wire — only chunk indices; the
// campaign spec is deterministic, so every node derives identical plans.
// On cancellation the worker posts whatever chunks already finished and
// returns; its remaining leases expire at the coordinator and are re-leased.
func runWork(c *cli.Cmd) error {
	var (
		coordinator = c.Flags.String("coordinator", "", "coordinator base URL (e.g. http://127.0.0.1:9090)")
		name        = c.Flags.String("name", "", "worker name, unique per campaign (default host-pid)")
		workers     = c.Flags.Int("workers", 0, "local simulation goroutines (0 = GOMAXPROCS)")
		maxChunks   = c.Flags.Int("max-chunks", 0, "maximum chunks requested per lease (0 = coordinator's cap)")
		tel         = c.Telemetry(cli.Trace | cli.Metrics | cli.Profile)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	if err := cli.Check(
		c.MinInt("workers", *workers, 0),
		c.MinInt("max-chunks", *maxChunks, 0),
	); err != nil {
		return err
	}
	if *coordinator == "" {
		return c.UsageErrorf("-coordinator is required")
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name:        *name,
		Coordinator: *coordinator,
		Workers:     *workers,
		MaxChunks:   *maxChunks,
		Logger:      tel.Logger,
		Tracer:      tel.Tracer,
		Metrics:     tel.Metrics,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	err = w.Run(c.Ctx)
	if errors.Is(err, context.Canceled) {
		c.Printf("work: interrupted after %d chunks (%s); leases will expire\n",
			w.Completed(), time.Since(start).Round(time.Millisecond))
		return nil
	}
	if err != nil {
		return err
	}
	c.Printf("work: done: %d chunks completed in %s\n",
		w.Completed(), time.Since(start).Round(time.Millisecond))
	return nil
}
