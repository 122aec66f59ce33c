package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/fabric"
	"repro/internal/fault"
)

// runCoord is the distributed-campaign coordinator: it materializes a
// corpus scenario into a deterministic fault-injection campaign, leases
// shard chunks to ffr work workers over the /v1/fabric HTTP protocol, and
// merges their failure masks into the standard versioned checkpoint — the
// merged result is bit-identical (checkpoint-fingerprint-equal) to a
// single-node run of the same spec.
//
// The coordinator never simulates injection chunks itself; it serves
// /v1/fabric/{join,lease,heartbeat,complete}, GET /v1/fabric/status,
// /healthz and /metrics until every chunk is merged, prints the campaign
// summary and returns. Crashed workers are healed by lease expiry;
// straggler chunks are work-stolen by idle workers.
func runCoord(c *cli.Cmd) error {
	var (
		campaign   = c.CampaignSpec("corpus scenario to run (\"family/workload\"; see ffr corpus -list)", 0)
		hardenList = c.Flags.String("harden", "", "comma-separated flip-flop indices to TMR-harden before the campaign (e.g. from ffr harden)")
		faultModel = c.FaultModel("fault model: seu, mbu:N, stuck0:D, stuck1:D, set, each with optional @start-end window; part of the campaign identity, shipped to workers in the spec")
		addr       = c.Flags.String("addr", ":9090", "listen address (host:port; port 0 picks a free port)")
		leaseTTL   = c.Flags.Duration("lease-ttl", fabric.DefaultLeaseTTL, "heartbeat deadline per leased chunk")
		maxLease   = c.Flags.Int("max-lease", fabric.DefaultMaxLeaseChunks, "maximum chunks granted per lease request")
		tel        = c.Telemetry(cli.Trace | cli.Metrics | cli.Profile)
	)
	if err := c.Parse(); err != nil {
		return err
	}
	spec, local, err := campaign()
	if err != nil {
		return err
	}
	if err := c.MinInt("max-lease", *maxLease, 1); err != nil {
		return err
	}
	if spec.Scenario == "" {
		return c.UsageErrorf("-scenario is required")
	}
	if spec.Harden, err = parseFFList(*hardenList); err != nil {
		return c.UsageErrorf("-harden: %v", err)
	}
	fmodel, err := faultModel()
	if err != nil {
		return err
	}
	spec.FaultModel = fmodel.String()
	if *leaseTTL <= 0 {
		return c.UsageErrorf("-lease-ttl must be positive (got %s)", *leaseTTL)
	}
	if _, err := fabric.ResolveSpec(spec); err != nil {
		return c.UsageErrorf("%v", err)
	}
	stop, err := tel.Start()
	if err != nil {
		return err
	}
	defer stop()

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:           spec,
		LeaseTTL:       *leaseTTL,
		MaxLeaseChunks: *maxLease,
		CheckpointPath: local.CheckpointPath,
		Resume:         local.Resume,
		Logger:         tel.Logger,
		Tracer:         tel.Tracer,
		Metrics:        tel.Metrics,
	})
	if err != nil {
		return err
	}
	camp := coord.Campaign()
	c.Printf("coord: campaign %s @ %s (seed %d): %d jobs in %d chunks of %d, plan %s, golden %s\n",
		camp.Spec.Scenario, camp.Spec.Scale, camp.Spec.Seed,
		camp.Plan.TotalJobs(), camp.Plan.NumChunks(), camp.Plan.ChunkJobs(),
		camp.PlanHashHex(), camp.GoldenHashHex())

	var res *fault.Result
	err = c.Serve(*addr, coord.Handler(), "", func(ctx context.Context) error {
		var err error
		if res, err = coord.Wait(ctx); err != nil {
			return err
		}
		// Keep serving briefly so every worker's next lease poll observes
		// Done instead of a dead socket; crashed workers cap the wait.
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		coord.Drained(drainCtx)
		return nil
	})
	if err != nil {
		return err
	}

	st := coord.Status()
	fp, _ := coord.CheckpointFingerprint()
	c.Printf("coord: campaign complete: %d/%d chunks, %d lease expirations, %d shards stolen\n",
		st.DoneChunks, st.TotalChunks, st.LeaseExpirations, st.ShardsStolen)
	c.Printf("coord: checkpoint fingerprint %s\n", strconv.FormatUint(fp, 16))
	for _, w := range st.Workers {
		c.Printf("coord: worker %s completed %d chunks\n", w.Worker, w.Completed)
	}
	if res != nil && len(res.FDR) > 0 {
		fdr := append([]float64(nil), res.FDR...)
		sort.Float64s(fdr)
		var sum float64
		for _, v := range fdr {
			sum += v
		}
		c.Printf("coord: FDR over %d FFs: mean %.4f, median %.4f, max %.4f\n",
			len(fdr), sum/float64(len(fdr)), fdr[len(fdr)/2], fdr[len(fdr)-1])
	}
	return nil
}

// parseFFList parses a comma-separated list of flip-flop indices; empty
// input means no hardening.
func parseFFList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad flip-flop index %q", part)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative flip-flop index %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}
