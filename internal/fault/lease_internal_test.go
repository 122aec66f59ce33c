package fault

import (
	"context"
	"reflect"
	"slices"
	"testing"
)

// TestLeasesShareOnePreparation: what a lease reads is built once per
// prepared plan, not once per lease. A campaign leased in four leases — under
// SEU, and under set, whose effect table is a golden-rate interpreter replay
// of the whole plan — gives the masks of one lease over every chunk, every
// lease sees the plan's packing order and the first lease's effect table
// (the same arrays, not equal copies), and a lease of no chunks allocates a small
// constant however long the plan is: no validation pass, no permutation, no
// table.
func TestLeasesShareOnePreparation(t *testing.T) {
	const leases = 4
	p, bench := wideMAC(t)
	for _, spec := range []string{"seu", "set"} {
		t.Run(spec, func(t *testing.T) {
			model, err := ParseModel(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewGoldenRunner(p, bench.Stim, bench.Monitors, NewMACClassifier(bench, true),
				RunnerConfig{Model: model, ChunkJobs: 64, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var emptyLease []float64
			for _, perTarget := range []int{1, 4} {
				jobs := NewModelPlan(model, model.NumTargets(p), perTarget, bench.ActiveCycles, 41)
				want := chunkMasks(t, r, jobs)

				pl, err := r.Prepare(jobs)
				if err != nil {
					t.Fatal(err)
				}
				if pl.NumChunks() < leases {
					t.Fatalf("%d chunks cannot make %d leases", pl.NumChunks(), leases)
				}
				var order, table uintptr
				got := make([][]uint64, pl.NumChunks())
				for l := 0; l < leases; l++ {
					var lease []int
					for ci := l; ci < pl.NumChunks(); ci += leases {
						lease = append(lease, ci)
					}
					done, err := pl.RunChunks(context.Background(), lease)
					if err != nil {
						t.Fatal(err)
					}
					for ci, masks := range done {
						got[ci] = masks
					}
					o, fx := reflect.ValueOf(pl.order).Pointer(), reflect.ValueOf(pl.setFX).Pointer()
					if l == 0 {
						order, table = o, fx
						if (spec == "set") != (len(pl.setFX) > 0) {
							t.Fatalf("effect table has %d entries under %s", len(pl.setFX), spec)
						}
					} else if o != order || fx != table {
						t.Fatalf("lease %d rebuilt the packing order or the effect table", l)
					}
				}
				if !slices.Equal(slices.Concat(got...), want) {
					t.Fatalf("%d leases' masks differ from one lease's", leases)
				}
				emptyLease = append(emptyLease, testing.AllocsPerRun(5, func() {
					if _, err := pl.RunChunks(context.Background(), nil); err != nil {
						t.Fatal(err)
					}
				}))
			}
			if emptyLease[0] != emptyLease[1] || emptyLease[0] > 16 {
				t.Fatalf("an empty lease allocates %v times on the short plan and %v on the 4x longer one, want the same small constant",
					emptyLease[0], emptyLease[1])
			}
		})
	}
}
