// Distributed: run the same corpus campaign twice — once single-node, once
// split across a coordinator and two HTTP workers — and prove the merged
// distributed checkpoint is bit-identical (fingerprint-equal) to the
// single-node reference. This is the determinism contract the fabric is
// built on: workers receive only chunk indices, rebuild the campaign from
// the wire spec, and the coordinator's merge order cannot affect the
// result. Exits nonzero on any mismatch, so CI can gate on it.
package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	// A small noise scenario: 48 flip-flops x 6 injections = 288 jobs in 5
	// chunks of 64 — enough chunks that both workers get real work.
	spec := repro.DistributedCampaignSpec{
		Scenario:        "random/noise",
		Scale:           "small",
		Seed:            11,
		InjectionsPerFF: 6,
		CampaignSeed:    77,
		ChunkJobs:       64,
	}

	// Reference: simulate every chunk in this process and record the masks
	// in the same ledger a coordinator keeps.
	camp, err := repro.BuildDistributedCampaign(spec, repro.CampaignRunnerConfig{})
	if err != nil {
		return err
	}
	single, err := camp.SingleNodeFingerprint(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("single-node checkpoint fingerprint: %016x\n", single)

	// Distributed: a coordinator serving the /v1/fabric protocol, fronted
	// by a real HTTP listener, with two workers racing for leases.
	tmp, err := os.MkdirTemp("", "ffr-distributed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	coord, err := repro.NewFabricCoordinator(repro.FabricCoordinatorConfig{
		Spec:           spec,
		CheckpointPath: filepath.Join(tmp, "merged.ckpt"),
	})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	errc := make(chan error, 2)
	for _, name := range []string{"worker-a", "worker-b"} {
		w, err := repro.NewFabricWorker(repro.FabricWorkerConfig{
			Name:        name,
			Coordinator: srv.URL,
		})
		if err != nil {
			return err
		}
		go func() { errc <- w.Run(context.Background()) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			return fmt.Errorf("worker: %w", err)
		}
	}
	if _, err := coord.Wait(context.Background()); err != nil {
		return err
	}

	st := coord.Status()
	fmt.Printf("distributed run: %d/%d chunks over %d workers\n",
		st.DoneChunks, st.TotalChunks, len(st.Workers))
	for _, w := range st.Workers {
		fmt.Printf("  %s completed %d chunks\n", w.Worker, w.Completed)
	}

	merged, ok := coord.CheckpointFingerprint()
	if !ok {
		return fmt.Errorf("coordinator finished without a checkpoint fingerprint")
	}
	fmt.Printf("distributed checkpoint fingerprint: %016x\n", merged)
	if merged != single {
		return fmt.Errorf("fingerprint mismatch: distributed %016x != single-node %016x", merged, single)
	}
	fmt.Println("fingerprints match: distributed merge is bit-identical to single-node")
	return nil
}
