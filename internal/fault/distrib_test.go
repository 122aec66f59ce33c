package fault_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRunChunksMergeMatchesRun pins the distributed substrate, per fault
// model: splitting a plan's chunks three ways across
// independent Runners (as three fabric workers would) must reproduce,
// chunk for chunk, the masks one checkpointed single-node Run records, and
// merging them and assembling a checkpoint must be bit-identical — same
// Result, same checkpoint fingerprint — to that Run.
func TestRunChunksMergeMatchesRun(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	for _, spec := range []string{"seu", "mbu:3", "stuck0:8", "stuck1:4@0.25-0.75", "set"} {
		model, err := fault.ParseModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs := fault.NewModelPlan(model, model.NumTargets(p), 2, bench.ActiveCycles, 41)
		cfg := fault.RunnerConfig{Model: model, ChunkJobs: 2 * 64, Workers: 2}

		// Single-node reference, checkpointed.
		ckPath := filepath.Join(t.TempDir(), "single.ckpt")
		refCfg := cfg
		refCfg.CheckpointPath = ckPath
		ref, err := fault.RunJobs(p, bench.Stim, bench.Monitors, cls, jobs, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		singleCk, err := fault.LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := fault.PlanShards(len(jobs), cfg.ChunkJobs)
		if err != nil {
			t.Fatal(err)
		}
		if sh.NumChunks() < 3 {
			t.Fatalf("%s: plan too small: %d chunks", spec, sh.NumChunks())
		}
		var split [3][]int
		for ci := 0; ci < sh.NumChunks(); ci++ {
			split[ci%3] = append(split[ci%3], ci)
		}

		t.Run(spec+"/kernel", func(t *testing.T) {
			// Three "workers": independent runners, disjoint chunk sets.
			merged := make(map[int][]uint64)
			for _, chunkSet := range split {
				w, err := fault.NewRunner(p, bench.Stim, bench.Monitors, fault.NewMACClassifier(bench, true), cfg)
				if err != nil {
					t.Fatal(err)
				}
				masks, err := w.RunChunks(context.Background(), jobs, chunkSet)
				if err != nil {
					t.Fatal(err)
				}
				if len(masks) != len(chunkSet) {
					t.Fatalf("worker returned %d of %d chunks", len(masks), len(chunkSet))
				}
				for ci, m := range masks {
					merged[ci] = m
				}
			}
			if !reflect.DeepEqual(merged, singleCk.Chunks) {
				t.Fatal("leased chunk masks differ from the single-node checkpoint's")
			}

			// Coordinator-side merge: Result and checkpoint must match
			// the single-node run exactly.
			coord, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.MergeChunks(jobs, merged)
			if err != nil {
				t.Fatal(err)
			}
			for ff := range ref.FDR {
				if res.Failures[ff] != ref.Failures[ff] || res.Injections[ff] != ref.Injections[ff] {
					t.Fatalf("target %d: distributed %d/%d, single-node %d/%d", ff,
						res.Failures[ff], res.Injections[ff], ref.Failures[ff], ref.Injections[ff])
				}
			}
			distCk, err := coord.CampaignCheckpoint(jobs, merged)
			if err != nil {
				t.Fatal(err)
			}
			if distCk.Fingerprint() != singleCk.Fingerprint() {
				t.Fatalf("checkpoint fingerprints differ: distributed %x, single-node %x",
					distCk.Fingerprint(), singleCk.Fingerprint())
			}

			// The merged checkpoint must round-trip through the existing
			// on-disk format and keep its fingerprint.
			distPath := filepath.Join(t.TempDir(), "merged.ckpt")
			if err := fault.SaveCheckpoint(distPath, distCk); err != nil {
				t.Fatal(err)
			}
			loaded, err := fault.LoadCheckpoint(distPath)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Fingerprint() != singleCk.Fingerprint() {
				t.Fatalf("fingerprint changed across save/load: %x != %x",
					loaded.Fingerprint(), singleCk.Fingerprint())
			}
		})
	}
}

// TestRunChunksValidation covers the error paths workers depend on.
func TestRunChunksValidation(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	jobs := fault.NewPlan(p.NumFFs(), 1, bench.ActiveCycles, 5)
	r, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls, fault.RunnerConfig{ChunkJobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunChunks(context.Background(), jobs, []int{-1}); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := r.RunChunks(context.Background(), jobs, []int{1 << 30}); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := r.RunChunks(context.Background(), jobs, []int{0, 0}); err == nil {
		t.Fatal("duplicate chunk accepted")
	}
	if _, err := r.MergeChunks(jobs, map[int][]uint64{}); err == nil {
		t.Fatal("incomplete merge accepted")
	}
	if _, err := r.MergeChunks(jobs, map[int][]uint64{0: {0}, 1: {0}, 1 << 20: {0}}); err == nil {
		t.Fatal("foreign chunk index accepted")
	}
}

// TestRunChunksInterrupted pins the lease-abandon path: cancellation
// returns the finished chunks plus ErrInterrupted.
func TestRunChunksInterrupted(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	jobs := fault.NewPlan(p.NumFFs(), 2, bench.ActiveCycles, 7)
	r, err := fault.NewRunner(p, bench.Stim, bench.Monitors, cls, fault.RunnerConfig{ChunkJobs: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := fault.PlanShards(len(jobs), 64)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, sh.NumChunks())
	for i := range all {
		all[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: nothing should be dispatched
	done, err := r.RunChunks(ctx, jobs, all)
	if !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("err %v, want ErrInterrupted", err)
	}
	if len(done) >= len(all) {
		t.Fatalf("canceled run completed all %d chunks", len(done))
	}
}

// TestPlanShardsGeometry pins the exported geometry against the internal
// splitting (whole 64-lane batches, short last chunk).
func TestPlanShardsGeometry(t *testing.T) {
	sh, err := fault.PlanShards(300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sh.ChunkJobs() != 128 { // 100 rounded up to 2 batches
		t.Fatalf("chunk jobs %d, want 128", sh.ChunkJobs())
	}
	if sh.NumChunks() != 3 || sh.TotalJobs() != 300 {
		t.Fatalf("geometry %d chunks / %d jobs", sh.NumChunks(), sh.TotalJobs())
	}
	if lo, hi := sh.ChunkRange(2); lo != 256 || hi != 300 {
		t.Fatalf("last chunk [%d,%d)", lo, hi)
	}
	if sh.ChunkBatches(2) != 1 {
		t.Fatalf("last chunk batches %d", sh.ChunkBatches(2))
	}
	if _, err := fault.PlanShards(-1, 0); err == nil {
		t.Fatal("negative plan accepted")
	}
}

// BenchmarkRunChunks measures the chunk executor end to end — worker state
// set-up, batch packing, windowed simulation, classification — over every
// chunk of a plan on one worker, per circuit and fault model: the small MAC
// under its frame-decoding classifier, and a corpus datapath at the scale
// the corpus-models workload runs it, under the exact classifier. Beside
// the time it reports the exact, repeatable counts behind it: engine cycles
// simulated per injection and lane occupancy (active / window lane-cycles).
func BenchmarkRunChunks(b *testing.B) {
	type circuitUnderTest struct {
		name     string
		p        *sim.Program
		stim     *sim.Stimulus
		monitors []int
		active   int
		cls      func() fault.Classifier
	}
	p, bench := smallMAC(b)
	sc, err := corpus.Find("alupipe/randomops")
	if err != nil {
		b.Fatal(err)
	}
	m, err := sc.Materialize(corpus.ScaleDefault, 1)
	if err != nil {
		b.Fatal(err)
	}
	circuits := []circuitUnderTest{
		{"mac", p, bench.Stim, bench.Monitors, bench.ActiveCycles,
			func() fault.Classifier { return fault.NewMACClassifier(bench, true) }},
		{"alupipe", m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.ActiveCycles,
			func() fault.Classifier { return m.Bench.Classifier }},
	}
	for _, c := range circuits {
		for _, spec := range []string{"seu", "mbu:3", "stuck0:8"} {
			model, err := fault.ParseModel(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(c.name+"/"+spec, func(b *testing.B) {
				jobs := fault.NewModelPlan(model, model.NumTargets(c.p), 8, c.active, 41)
				sh, err := fault.PlanShards(len(jobs), 0)
				if err != nil {
					b.Fatal(err)
				}
				all := make([]int, sh.NumChunks())
				for i := range all {
					all[i] = i
				}
				reg := obs.NewRegistry()
				r, err := fault.NewRunner(c.p, c.stim, c.monitors, c.cls(),
					fault.RunnerConfig{Model: model, Workers: 1, Metrics: reg})
				if err != nil {
					b.Fatal(err)
				}
				// Golden run, snapshots and kernel compilation are set-up.
				if _, err := r.RunChunks(context.Background(), jobs, nil); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := r.RunChunks(context.Background(), jobs, all); err != nil {
						b.Fatal(err)
					}
				}
				injections := float64(b.N) * float64(len(jobs))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/injections, "ns/injection")
				count := func(name string) float64 { return reg.Counter(name, "").Value() }
				b.ReportMetric(count("ffr_campaign_simulated_cycles_total")/injections, "sim-cycles/injection")
				b.ReportMetric(count("ffr_campaign_active_lane_cycles_total")/count("ffr_campaign_window_lane_cycles_total"), "lane-occupancy")
			})
		}
	}
}
