package fault_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRunChunksMergeMatchesRun pins the distributed substrate, per fault
// model: splitting a plan's chunks three ways across
// independent Runners (as three fabric workers would) must reproduce,
// chunk for chunk, the masks one checkpointed single-node Run records, and
// recording them in a fourth Runner's ledger (as their coordinator would)
// must be bit-identical — same Result, same checkpoint fingerprint, same
// file — to that Run.
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
		ref, err := runJobs(p, bench.Stim, bench.Monitors, cls, jobs, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		singleCk, err := fault.LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		if singleCk.NumChunks < 3 {
			t.Fatalf("%s: plan too small: %d chunks", spec, singleCk.NumChunks)
		}
		var split [3][]int
		for ci := 0; ci < singleCk.NumChunks; ci++ {
			split[ci%3] = append(split[ci%3], ci)
		}

		t.Run(spec+"/kernel", func(t *testing.T) {
			// Three "workers": independent runners, disjoint chunk sets.
			merged := make(map[int][]uint64)
			for _, chunkSet := range split {
				masks, err := prepare(t, p, bench, cfg, jobs).RunChunks(context.Background(), chunkSet)
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

			// Coordinator-side ledger: Result and checkpoint must match
			// the single-node run exactly.
			distCfg := cfg
			distCfg.CheckpointPath = filepath.Join(t.TempDir(), "merged.ckpt")
			lg, err := prepare(t, p, bench, distCfg, jobs).OpenLedger()
			if err != nil {
				t.Fatal(err)
			}
			for ci, m := range merged {
				if dup, err := lg.Add(ci, m); err != nil || dup {
					t.Fatalf("chunk %d: duplicate=%v, err %v", ci, dup, err)
				}
			}
			res, err := lg.Result()
			if err != nil {
				t.Fatal(err)
			}
			for ff := range ref.FDR {
				if res.Failures[ff] != ref.Failures[ff] || res.Injections[ff] != ref.Injections[ff] {
					t.Fatalf("target %d: distributed %d/%d, single-node %d/%d", ff,
						res.Failures[ff], res.Injections[ff], ref.Failures[ff], ref.Injections[ff])
				}
			}
			if !slices.Equal(res.FailedJobs, ref.FailedJobs) {
				t.Fatal("distributed per-job outcome bits differ from the single-node run's")
			}
			if lg.Fingerprint() != singleCk.Fingerprint() {
				t.Fatalf("checkpoint fingerprints differ: distributed %x, single-node %x",
					lg.Fingerprint(), singleCk.Fingerprint())
			}

			// The file the ledger flushed with the last chunk must load
			// from the existing on-disk format with the same fingerprint.
			loaded, err := fault.LoadCheckpoint(distCfg.CheckpointPath)
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

// prepare returns jobs prepared on a fresh Runner over the small MAC.
func prepare(t testing.TB, p *sim.Program, bench *circuit.MACBench, cfg fault.RunnerConfig, jobs []fault.Job) *fault.Plan {
	t.Helper()
	r, err := fault.NewGoldenRunner(p, bench.Stim, bench.Monitors, fault.NewMACClassifier(bench, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := r.Prepare(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestRunChunksValidation covers the error paths workers and their
// coordinator depend on.
func TestRunChunksValidation(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 1, bench.ActiveCycles, 5)
	pl := prepare(t, p, bench, fault.RunnerConfig{ChunkJobs: 64}, jobs)
	if _, err := pl.RunChunks(context.Background(), []int{-1}); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := pl.RunChunks(context.Background(), []int{1 << 30}); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := pl.RunChunks(context.Background(), []int{0, 0}); err == nil {
		t.Fatal("duplicate chunk accepted")
	}
	lg, err := pl.OpenLedger()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Result(); err == nil {
		t.Fatal("incomplete merge accepted")
	}
	if _, err := lg.Add(1<<20, []uint64{0}); err == nil {
		t.Fatal("foreign chunk index accepted")
	}
	if _, err := lg.Add(0, []uint64{0, 0}); err == nil {
		t.Fatal("wrong mask count accepted")
	}
	if lg.Len() != 0 {
		t.Fatalf("refused chunks left %d recorded", lg.Len())
	}
	if dup, err := lg.Add(0, []uint64{5}); err != nil || dup {
		t.Fatalf("first copy: duplicate=%v, err %v", dup, err)
	}
	if dup, err := lg.Add(0, []uint64{5}); err != nil || !dup {
		t.Fatalf("identical copy: duplicate=%v, err %v", dup, err)
	}
	if _, err := lg.Add(0, []uint64{4}); !errors.Is(err, fault.ErrChunkConflict) {
		t.Fatalf("contradicting copy returned %v, want ErrChunkConflict", err)
	}
	if lg.Len() != 1 || lg.Err() != nil {
		t.Fatalf("after one chunk and two refused copies: %d recorded, Err %v", lg.Len(), lg.Err())
	}
}

// TestRunChunksInterrupted pins the lease-abandon path: cancellation
// returns the finished chunks plus ErrInterrupted.
func TestRunChunksInterrupted(t *testing.T) {
	p, bench := smallMAC(t)
	jobs := fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 7)
	pl := prepare(t, p, bench, fault.RunnerConfig{ChunkJobs: 64, Workers: 1}, jobs)
	all := make([]int, pl.NumChunks())
	for i := range all {
		all[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: nothing should be dispatched
	done, err := pl.RunChunks(ctx, all)
	if !errors.Is(err, fault.ErrInterrupted) {
		t.Fatalf("err %v, want ErrInterrupted", err)
	}
	if len(done) != 0 {
		t.Fatalf("a run canceled before it started completed %d of %d chunks", len(done), len(all))
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
				reg := obs.NewRegistry()
				r, err := fault.NewGoldenRunner(c.p, c.stim, c.monitors, c.cls(),
					fault.RunnerConfig{Model: model, Workers: 1, Metrics: reg})
				if err != nil {
					b.Fatal(err)
				}
				pl, err := r.Prepare(jobs)
				if err != nil {
					b.Fatal(err)
				}
				all := make([]int, pl.NumChunks())
				for i := range all {
					all[i] = i
				}
				// Golden run, snapshots and kernel compilation are set-up.
				if _, err := pl.RunChunks(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := pl.RunChunks(context.Background(), all); err != nil {
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

// BenchmarkLease measures what one fabric lease costs on a prepared plan: an
// empty lease (everything that is not simulation: it must not grow with the
// plan) and a 2-chunk lease, the coordinator's default grant, taken from the
// middle of the plan. mac-seu is the
// paper's campaign, the 1054-FF MAC at 170 injections per flip-flop;
// alupipe-set is a corpus datapath under the transient model, whose effect
// table — one golden-rate interpreter replay of the whole plan — every lease
// used to rebuild.
func BenchmarkLease(b *testing.B) {
	for _, c := range []struct{ name, scenario, model string }{
		{"mac-seu", "mac10ge/loopback", "seu"},
		{"alupipe-set", "alupipe/randomops", "set"},
	} {
		sc, err := corpus.Find(c.scenario)
		if err != nil {
			b.Fatal(err)
		}
		m, err := sc.Materialize(corpus.ScaleDefault, 1)
		if err != nil {
			b.Fatal(err)
		}
		model, err := fault.ParseModel(c.model)
		if err != nil {
			b.Fatal(err)
		}
		r, err := fault.NewRunner(m.Program, m.Bench.Stim, m.Bench.Monitors, m.Bench.Classifier,
			fault.RunnerConfig{Model: model, Workers: 1, Golden: m.Golden, Snapshots: m.Snapshots})
		if err != nil {
			b.Fatal(err)
		}
		pl, err := r.Prepare(fault.NewModelPlan(model, model.NumTargets(m.Program),
			sc.Entry.Defaults.InjectionsPerFF, m.Bench.ActiveCycles, sc.Entry.Defaults.CampaignSeed))
		if err != nil {
			b.Fatal(err)
		}
		// The first lease prepares: kernel, effect table.
		if _, err := pl.RunChunks(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
		mid := pl.NumChunks() / 2
		for _, lease := range []struct {
			name   string
			chunks []int
		}{{"empty", nil}, {"2-chunk", []int{mid, mid + 1}}} {
			b.Run(c.name+"/"+lease.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := pl.RunChunks(context.Background(), lease.chunks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
