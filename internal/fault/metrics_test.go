package fault_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCampaignMetrics pins the ffr_campaign_* families: an instrumented
// campaign must report consistent chunk/batch/job counts, a plausible
// fast-forward hit rate, early-exit accounting that covers every window,
// and — on chunks of several kernel batches — the repacking it did, in an
// exposition that passes scripts/metrics-lint.sh.
func TestCampaignMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r, jobs := newRunner(t, fault.RunnerConfig{
		ChunkJobs: 8 * sim.Lanes,
		Workers:   2,
		Metrics:   reg,
	})
	res, err := r.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	reg.WriteText(&b)
	text := b.String()
	for _, fam := range []string{
		"ffr_campaign_chunks_completed_total",
		"ffr_campaign_chunk_seconds_count",
		"ffr_campaign_batches_total",
		"ffr_campaign_simulated_cycles_total",
		"ffr_campaign_replay_cycles_total",
		"ffr_campaign_active_lane_cycles_total",
		"ffr_campaign_window_lane_cycles_total",
		"ffr_campaign_repacked_lanes_total",
		"ffr_campaign_early_exits_total",
		"ffr_campaign_jobs_done",
		"ffr_campaign_jobs_total",
		"ffr_campaign_kernel_ops",
		"ffr_campaign_kernel_slots",
		"ffr_campaign_kernel_hold_captures",
		"ffr_campaign_kernel_coalesced_captures",
		"ffr_campaign_kernel_removed_ops",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("exposition missing %s:\n%s", fam, text)
		}
	}

	get := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("exposition has no sample %s:\n%s", name, text)
		return 0
	}
	if got := get("ffr_campaign_chunks_completed_total"); got != float64(res.Chunks) {
		t.Fatalf("chunks completed %v, result says %d", got, res.Chunks)
	}
	if got := get("ffr_campaign_chunk_seconds_count"); got != float64(res.Chunks) {
		t.Fatalf("%v chunk timings (unlabeled), result says %d chunks", got, res.Chunks)
	}
	if got, want := get("ffr_campaign_lanes_per_batch"), float64(sim.Lanes*sim.DefaultKernelWords); got != want {
		t.Fatalf("lanes per batch %v, want %v", got, want)
	}
	if got := get("ffr_campaign_batches_total"); got != float64(res.Batches) {
		t.Fatalf("batches %v, result says %d", got, res.Batches)
	}
	if got := get("ffr_campaign_jobs_done"); got != float64(res.TotalRuns) {
		t.Fatalf("jobs done gauge %v, result says %d", got, res.TotalRuns)
	}
	if got := get("ffr_campaign_simulated_cycles_total"); got != float64(res.SimulatedCycles) {
		t.Fatalf("simulated cycles %v, result says %d", got, res.SimulatedCycles)
	}
	if got := get("ffr_campaign_replay_cycles_total"); got != float64(res.ReplayCycles) {
		t.Fatalf("replay cycles %v, result says %d", got, res.ReplayCycles)
	}
	k, err := r.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	for name, want := range map[string]int{
		"ffr_campaign_kernel_ops":                       st.KernelOps,
		"ffr_campaign_kernel_slots":                     st.Slots,
		"ffr_campaign_kernel_hold_captures":             st.Holds,
		"ffr_campaign_kernel_coalesced_captures":        st.Coalesced,
		`ffr_campaign_kernel_removed_ops{pass="fold"}`:  st.Folded,
		`ffr_campaign_kernel_removed_ops{pass="fuse"}`:  st.Fused,
		`ffr_campaign_kernel_removed_ops{pass="prune"}`: st.Pruned,
	} {
		if got := get(name); got != float64(want) || want == 0 {
			t.Fatalf("%s = %v, the kernel's stats say %d", name, got, want)
		}
	}
	// Lane occupancy of the kernel batches: every simulated cycle at the
	// engine's full width, trailing partial snapshot intervals included, of
	// which the undecided lanes are a non-empty part.
	active, window := get("ffr_campaign_active_lane_cycles_total"), get("ffr_campaign_window_lane_cycles_total")
	if want := get("ffr_campaign_lanes_per_batch") * float64(res.SimulatedCycles); window != want {
		t.Fatalf("window lane-cycles %v, want lanes per batch x %d simulated cycles = %v", window, res.SimulatedCycles, want)
	}
	if active <= 0 || active > window {
		t.Fatalf("active lane-cycles %v outside (0, %v]", active, window)
	}
	// Repacking: every cut group is an early exit of its own reason, every
	// lane it left behind was re-injected, and each round passes on at most
	// a quarter of its lanes (1/4 + 1/16 + ... < 1/3 of the plan).
	cut, repacked := get(`ffr_campaign_early_exits_total{reason="repacked"}`), get("ffr_campaign_repacked_lanes_total")
	if cut <= 0 || repacked < cut || repacked > float64(res.TotalRuns)/3 {
		t.Fatalf("%v groups cut with %v lanes repacked of %d", cut, repacked, res.TotalRuns)
	}
	lintExposition(t, text)
}

// lintExposition runs scripts/metrics-lint.sh over a rendered exposition,
// so the repo's Prometheus-text gate covers the campaign families without
// standing up an HTTP listener.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	script := filepath.Join("..", "..", "scripts", "metrics-lint.sh")
	if _, err := os.Stat(script); err != nil {
		t.Fatalf("metrics-lint script: %v", err)
	}
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skipf("sh unavailable: %v", err)
	}
	cmd := exec.Command("sh", script)
	cmd.Stdin = strings.NewReader(text)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("metrics-lint failed: %v\n%s\nexposition:\n%s", err, out, text)
	}
}

// TestCampaignMetricsUnchangedResults pins that instrumentation is
// observation-only: the same campaign with and without a metrics registry
// produces identical failure counts.
func TestCampaignMetricsUnchangedResults(t *testing.T) {
	plain, jobs := newRunner(t, fault.RunnerConfig{ChunkJobs: sim.Lanes, Workers: 2})
	want, err := plain.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	metered, jobs2 := newRunner(t, fault.RunnerConfig{
		ChunkJobs: sim.Lanes, Workers: 2, Metrics: obs.NewRegistry(),
	})
	got, err := metered.RunContext(context.Background(), jobs2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Failures) != len(got.Failures) {
		t.Fatalf("failure vector length %d vs %d", len(want.Failures), len(got.Failures))
	}
	for ff := range want.Failures {
		if want.Failures[ff] != got.Failures[ff] {
			t.Fatalf("FF %d: %d failures without metrics, %d with", ff, want.Failures[ff], got.Failures[ff])
		}
	}
}
