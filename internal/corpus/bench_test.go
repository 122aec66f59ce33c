package corpus_test

import (
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/sim"
)

// BenchmarkMaterialize is the front-end budget: what a study pays before
// its first injection, phase by phase, on the paper's MAC and on one
// workload of each corpus family. It walks Scenario.MaterializeWith's
// stages by hand with a clock between them; ns/op is their sum.
func BenchmarkMaterialize(b *testing.B) {
	for _, id := range []string{"mac10ge/loopback", "alupipe/randomops", "rrarb/uniform", "uartser/paced", "random/noise"} {
		sc, err := corpus.Find(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sc.Entry.Name, func(b *testing.B) {
			phases := []string{"generate", "synthesize", "compile", "workload", "kernel", "golden", "features"}
			spent := make([]time.Duration, len(phases))
			b.ReportAllocs()
			for b.Loop() {
				mark, phase := time.Now(), 0
				lap := func(err error) {
					if err != nil {
						b.Fatal(err)
					}
					now := time.Now()
					spent[phase] += now.Sub(mark)
					mark, phase = now, phase+1
				}
				nl, err := sc.Entry.Generate(corpus.ScaleDefault, 1)
				lap(err)
				lap(circuit.Synthesize(nl))
				p, err := sim.Compile(nl)
				lap(err)
				bench, err := sc.Workload.Build(p, corpus.ScaleDefault, 1)
				lap(err)
				k, err := p.Kernel(bench.Stim.ObservedOutputs(bench.Monitors))
				lap(err)
				snaps := sim.NewSnapshots(p, bench.Stim, 0)
				_, act := sim.RunKernel(sim.NewKernelEngine(k, 1), bench.Stim, sim.RunConfig{
					Monitors: bench.Monitors, CollectActivity: true, Snapshots: snaps,
				})
				lap(nil)
				ex, err := features.NewExtractor(nl)
				if err == nil {
					_, err = ex.Extract(act)
				}
				lap(err)
			}
			for i, name := range phases {
				b.ReportMetric(float64(spent[i].Microseconds())/1e3/float64(b.N), name+"-ms")
			}
		})
	}
}
