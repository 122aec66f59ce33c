package features

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// BenchmarkExtract measures the feature layer on the full 1054-FF MAC the
// way a study pays for it: one extractor (graph views, bus table) and one
// 25-column matrix, dynamic columns from a golden run's activity.
func BenchmarkExtract(b *testing.B) {
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		b.Fatal(err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		b.Fatal(err)
	}
	bench, err := circuit.BuildMACBench(p, circuit.DefaultMACBenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	_, act := sim.Run(sim.NewEngine(p), bench.Stim, sim.RunConfig{CollectActivity: true})
	b.ReportAllocs()
	for b.Loop() {
		ex, err := NewExtractor(nl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Extract(act); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nl.NumFFs()), "ns/flip-flop")
}
