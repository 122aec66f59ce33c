package fabric_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
)

// TestResolveSpecCanonicalizesFaultModel: the wire spec carries the fault
// model as its canonical string so equal campaigns serialize identically;
// any parseable spelling resolves, the empty spelling means SEU, and
// malformed models are refused before materialization.
func TestResolveSpecCanonicalizesFaultModel(t *testing.T) {
	spec := testSpec()
	resolved, err := fabric.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resolved.FaultModel != "seu" {
		t.Fatalf("empty fault model resolved to %q, want %q", resolved.FaultModel, "seu")
	}

	spec.FaultModel = " MBU:3 "
	resolved, err = fabric.ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resolved.FaultModel != "mbu:3" {
		t.Fatalf("fault model canonicalized to %q, want %q", resolved.FaultModel, "mbu:3")
	}

	for _, bad := range []string{"mbu:9", "gamma", "seu@2-3"} {
		spec.FaultModel = bad
		if _, err := fabric.ResolveSpec(spec); err == nil {
			t.Errorf("ResolveSpec accepted fault model %q", bad)
		}
	}
}

// TestDistributedModelCampaignMatchesSingleNode: a 2-worker distributed MBU
// campaign merges to a checkpoint fingerprint-identical to the single-node
// run — the model rides the wire spec, so workers materialize the same
// clusters and plans without any side channel — and to the same per-job
// outcome bits.
func TestDistributedModelCampaignMatchesSingleNode(t *testing.T) {
	spec := testSpec()
	spec.FaultModel = "mbu:2"

	ck, single := checkpointed(t, spec, fault.RunnerConfig{Workers: 2}, filepath.Join(t.TempDir(), "single.ckpt"))
	want := ck.Fingerprint()
	if ck.Model != "mbu:2" {
		t.Fatalf("single-node checkpoint records model %q, want %q", ck.Model, "mbu:2")
	}

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:     spec,
		LeaseTTL: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runWorkers(t, coord, 2); got != want {
		t.Fatalf("distributed MBU fingerprint %x != single-node %x", got, want)
	}
	res, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedJobs) == 0 || !slices.Equal(res.FailedJobs, single.FailedJobs) {
		t.Fatalf("distributed per-job outcome bits (%d words) differ from the single-node run's (%d)",
			len(res.FailedJobs), len(single.FailedJobs))
	}
}
