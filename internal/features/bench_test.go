package features_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
)

// materialized returns a corpus scenario's netlist and golden activity.
func materialized(tb testing.TB, id string, scale corpus.Scale) *corpus.Materialized {
	tb.Helper()
	sc, err := corpus.Find(id)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sc.Materialize(scale, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkExtract measures the feature layer the way a study pays for it —
// one extractor (netlist validation, cone walks, stage graph) and one
// 25-column matrix, dynamic columns from a golden run's activity — on the
// full 1054-FF MAC and on each corpus family.
func BenchmarkExtract(b *testing.B) {
	for _, c := range []struct{ name, scenario string }{
		{"mac", "mac10ge/loopback"},
		{"alupipe", "alupipe/randomops"},
		{"rrarb", "rrarb/uniform"},
		{"uartser", "uartser/paced"},
		{"random", "random/noise"},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := materialized(b, c.scenario, corpus.ScaleDefault)
			b.ReportAllocs()
			for b.Loop() {
				ex, err := features.NewExtractor(m.Netlist)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ex.Extract(m.Activity); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NumFFs()), "ns/flip-flop")
		})
	}
}

// TestExtractAllocations bounds the analysis without a clock: its
// allocations are per netlist — tables, scratch, the stage graph, one
// backing array for the rows — plus a few regrowths of the edge list, so a
// map per cone walk or a slice per flip-flop (134 allocations per flip-flop
// before the flat-array rewrite) fails here on any machine.
func TestExtractAllocations(t *testing.T) {
	for _, c := range []struct {
		scenario string
		scale    corpus.Scale
	}{
		{"mac10ge/loopback", corpus.ScaleDefault},
		{"rrarb/uniform", corpus.ScaleSmall},
		{"rrarb/uniform", corpus.ScaleDefault},
	} {
		m := materialized(t, c.scenario, c.scale)
		allocs := testing.AllocsPerRun(3, func() {
			ex, err := features.NewExtractor(m.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Extract(m.Activity); err != nil {
				t.Fatal(err)
			}
		})
		perFF := allocs / float64(m.NumFFs())
		t.Logf("%s/%v: %.0f allocations for %d flip-flops (%.2f each)", c.scenario, c.scale, allocs, m.NumFFs(), perFF)
		if perFF > 1 {
			t.Errorf("%s/%v: %.0f allocations for %d flip-flops, want at most one each", c.scenario, c.scale, allocs, m.NumFFs())
		}
	}
}
