package fabric_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fault"
)

// checkpointed runs the spec single-node under local (Model, ChunkJobs,
// Golden and Snapshots come from the spec) with a checkpoint at path and
// returns the finished file and the campaign's result.
func checkpointed(t *testing.T, spec api.CampaignSpec, local fault.RunnerConfig, path string) (*fault.Checkpoint, *fault.Result) {
	t.Helper()
	camp, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := fault.ParseModel(camp.Spec.FaultModel)
	if err != nil {
		t.Fatal(err)
	}
	local.Model, local.ChunkJobs, local.CheckpointPath = model, camp.Spec.ChunkJobs, path
	runner, err := camp.M.Runner(local)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunContext(context.Background(), camp.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := fault.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return ck, res
}

// runWorkers runs n workers against the coordinator until the campaign
// completes and returns its checkpoint fingerprint.
func runWorkers(t *testing.T, coord *fabric.Coordinator, n int) uint64 {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Coordinator: srv.URL, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	fp, ok := coord.CheckpointFingerprint()
	if !ok {
		t.Fatal("campaign finished without a fingerprint")
	}
	return fp
}

// TestCoordinatorRefusesForeignCheckpoint: a coordinator resumes only the
// checkpoint of its own campaign. A file written under another fault model
// — SEU and stuck-at plans are the same jobs, so the plan fingerprint cannot
// tell — or under another shard geometry is refused with
// fault.ErrCheckpointMismatch, as a Runner refuses it, and stays on disk
// byte for byte: never a campaign that finishes with no worker attached on
// the other campaign's masks, under this one's label.
func TestCoordinatorRefusesForeignCheckpoint(t *testing.T) {
	spec := testSpec()
	for _, tc := range []struct {
		name    string
		foreign func(*api.CampaignSpec)
	}{
		{"fault-model", func(s *api.CampaignSpec) { s.FaultModel = "stuck1:4" }},
		{"geometry", func(s *api.CampaignSpec) { s.ChunkJobs = 128 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := spec
			tc.foreign(&other)
			path := filepath.Join(t.TempDir(), "campaign.ckpt")
			ck, _ := checkpointed(t, other, fault.RunnerConfig{}, path)
			mine, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if ck.PlanHash.String() != mine.PlanHashHex() {
				t.Fatalf("the foreign campaign has plan %v, this one %s: the plan fingerprint alone tells them apart",
					ck.PlanHash, mine.PlanHashHex())
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: spec, CheckpointPath: path, Resume: true})
			if !errors.Is(err, fault.ErrCheckpointMismatch) {
				t.Fatalf("resume over a checkpoint of another %s returned %v, want ErrCheckpointMismatch", tc.name, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("the refused checkpoint was rewritten")
			}
		})
	}
}

// TestCoordinatorRefusesLegacyCheckpoint: a checkpoint an earlier build
// packed in plan order — internal/fault/testdata/campaign-legacy.ckpt, and
// this campaign's own file with its schedule field dropped or spelled "plan"
// — is refused by a resuming coordinator with fault.ErrCheckpointVersion, as
// LoadCheckpoint refuses it, and stays on disk byte for byte.
func TestCoordinatorRefusesLegacyCheckpoint(t *testing.T) {
	spec := testSpec()
	refused := func(t *testing.T, path string) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: spec, CheckpointPath: path, Resume: true})
		if !errors.Is(err, fault.ErrCheckpointVersion) {
			t.Fatalf("resume over a plan-order checkpoint returned %v, want ErrCheckpointVersion", err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("the refused checkpoint was rewritten (%v)", err)
		}
	}
	legacy, err := os.ReadFile(filepath.Join("..", "fault", "testdata", "campaign-legacy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign-legacy.ckpt")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(t, path)

	for _, recorded := range []string{"", "plan"} {
		t.Run("recorded="+cmp.Or(recorded, "none"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.ckpt")
			ck, _ := checkpointed(t, spec, fault.RunnerConfig{}, path)
			ck.Schedule = recorded
			if err := fault.SaveCheckpoint(path, ck); err != nil {
				t.Fatal(err)
			}
			refused(t, path)
		})
	}
}
