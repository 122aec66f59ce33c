package corpus_test

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The corpus contract the CLI and the docs advertise: at least four DUT
// families, at least six scenario variants, unique IDs, and every scenario
// resolvable by Find.
func TestCorpusInventory(t *testing.T) {
	fams := corpus.Families()
	if len(fams) < 4 {
		t.Fatalf("%d families registered, want >= 4", len(fams))
	}
	scenarios := corpus.List()
	if len(scenarios) < 6 {
		t.Fatalf("%d scenarios registered, want >= 6", len(scenarios))
	}
	seen := map[string]bool{}
	for _, s := range scenarios {
		id := s.ID()
		if seen[id] {
			t.Fatalf("duplicate scenario ID %q", id)
		}
		seen[id] = true
		got, err := corpus.Find(id)
		if err != nil {
			t.Fatalf("Find(%q): %v", id, err)
		}
		if got.ID() != id {
			t.Fatalf("Find(%q) resolved to %q", id, got.ID())
		}
		if s.Entry.Defaults.InjectionsPerFF < 1 {
			t.Fatalf("%s: no default injection budget", id)
		}
	}
	// Family shorthand resolves to the first workload.
	first, err := corpus.Find("mac10ge")
	if err != nil {
		t.Fatal(err)
	}
	if first.Workload.Name != "loopback" {
		t.Fatalf("family shorthand resolved to %q, want loopback", first.Workload.Name)
	}
	if _, err := corpus.Find("nosuch/thing"); err == nil {
		t.Fatal("unknown family resolved")
	}
	if _, err := corpus.Find("mac10ge/nosuch"); err == nil {
		t.Fatal("unknown workload resolved")
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	gen := func(corpus.Scale, int64) (*netlist.Netlist, error) { return nil, nil }
	wl := []corpus.Workload{{Name: "w", Build: func(*sim.Program, corpus.Scale, int64) (*corpus.Bench, error) {
		return nil, nil
	}}}
	geom := corpus.Geometry{InjectionsPerFF: 1}
	cases := []*corpus.Entry{
		nil,
		{Name: "", Generate: gen, Workloads: wl, Defaults: geom},
		{Name: "a/b", Generate: gen, Workloads: wl, Defaults: geom},
		{Name: "x", Workloads: wl, Defaults: geom},
		{Name: "x", Generate: gen, Defaults: geom},
		{Name: "x", Generate: gen, Workloads: wl},
		{Name: "mac10ge", Generate: gen, Workloads: wl, Defaults: geom}, // duplicate
		{Name: "x", Generate: gen, Defaults: geom,
			Workloads: []corpus.Workload{wl[0], wl[0]}}, // duplicate workload
	}
	for i, e := range cases {
		if err := corpus.Register(e); err == nil {
			t.Errorf("case %d: bad entry registered", i)
		}
	}
}

// Every scenario must be fully deterministic: generating twice yields
// fingerprint-identical netlists, and materializing twice yields
// fingerprint-identical golden traces. This is the per-circuit simulator
// regression net — any change to a generator, the synthesis pass, the
// engine or a workload builder shows up as a golden fingerprint change in
// exactly the affected scenarios.
func TestScenarioDeterminism(t *testing.T) {
	for _, s := range corpus.List() {
		s := s
		t.Run(s.ID(), func(t *testing.T) {
			t.Parallel()
			const seed = 1
			a, err := s.Entry.Generate(corpus.ScaleSmall, seed)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			b, err := s.Entry.Generate(corpus.ScaleSmall, seed)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatal("two generations with the same seed differ")
			}
			m1, err := s.Materialize(corpus.ScaleSmall, seed)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			m2, err := s.Materialize(corpus.ScaleSmall, seed)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			if m1.Golden.Fingerprint() != m2.Golden.Fingerprint() {
				t.Fatal("two materializations with the same seed produce different golden traces")
			}
			if m1.NumFFs() == 0 {
				t.Fatal("materialized DUT has no flip-flops")
			}
			if len(m1.Features.Rows) != m1.NumFFs() {
				t.Fatalf("feature matrix has %d rows for %d FFs", len(m1.Features.Rows), m1.NumFFs())
			}
			// Dynamic features must be populated (the workload toggles
			// something).
			toggled := false
			for _, tg := range m1.Activity.Toggles {
				if tg > 0 {
					toggled = true
					break
				}
			}
			if !toggled {
				t.Fatal("workload produced no flip-flop activity")
			}
		})
	}
}

// pinnedGoldenFingerprints are the small-scale, seed-1 golden trace
// fingerprints of every built-in scenario. They pin the full generator →
// synthesis → compile → workload → simulator stack per circuit: a diff here
// means simulated behavior changed for that scenario and its FDR ground
// truth is no longer comparable with historical campaigns.
//
// When a change is intentional (generator or workload redesign), update the
// affected constants — the failure message prints the new value.
var pinnedGoldenFingerprints = map[string]uint64{
	"mac10ge/loopback":  0x244cc0d3a7aa904f, // 634 FFs, 195 cycles
	"mac10ge/bursty":    0x497fdebf923595c6, // 634 FFs, 138 cycles
	"alupipe/randomops": 0x65beacf8ec30c0d1, // 85 FFs, 200 cycles
	"alupipe/streaming": 0x1dcbc34f779f7f29, // 85 FFs, 200 cycles
	"rrarb/uniform":     0xdb6271004f3f5242, // 249 FFs, 304 cycles
	"rrarb/hotspot":     0xb3615a11bbd437ca, // 249 FFs, 304 cycles
	"uartser/paced":     0x63e10641d59fa17d, // 99 FFs, 274 cycles
	"uartser/burst":     0xb110a3fccf052d46, // 99 FFs, 162 cycles
	"random/noise":      0x3629f7c93424e3d5, // 48 FFs, 256 cycles
}

func TestGoldenTraceFingerprintsPinned(t *testing.T) {
	for _, s := range corpus.List() {
		s := s
		t.Run(s.ID(), func(t *testing.T) {
			t.Parallel()
			want, ok := pinnedGoldenFingerprints[s.ID()]
			if !ok {
				t.Fatalf("scenario %s has no pinned golden fingerprint; add it", s.ID())
			}
			m, err := s.Materialize(corpus.ScaleSmall, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Golden.Fingerprint(); got != want {
				t.Fatalf("golden fingerprint %#x, pinned %#x — simulated behavior changed; "+
					"update pinnedGoldenFingerprints if intentional", got, want)
			}
		})
	}
}

// A tiny end-to-end campaign must run for every non-MAC scenario through
// the sharded runner: finite FDR in [0,1], and the corpus circuits must be
// observably vulnerable (some failures found somewhere).
func TestCorpusScenarioCampaigns(t *testing.T) {
	totalFailures := 0
	for _, s := range corpus.List() {
		if s.Entry.Name == "mac10ge" {
			continue // covered (heavily) by the core study tests
		}
		m, err := s.Materialize(corpus.ScaleSmall, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.ID(), err)
		}
		runner, err := m.Runner(fault.RunnerConfig{})
		if err != nil {
			t.Fatalf("%s: %v", s.ID(), err)
		}
		g, err := s.Campaign(2, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.ID(), err)
		}
		res, err := runner.RunContext(context.Background(), m.Jobs(fault.Model{}, g.InjectionsPerFF, g.CampaignSeed))
		if err != nil {
			t.Fatalf("%s: campaign: %v", s.ID(), err)
		}
		if len(res.FDR) != m.NumFFs() {
			t.Fatalf("%s: FDR for %d FFs, want %d", s.ID(), len(res.FDR), m.NumFFs())
		}
		for ff, v := range res.FDR {
			if v < 0 || v > 1 {
				t.Fatalf("%s: FF %d has FDR %v", s.ID(), ff, v)
			}
		}
		for _, f := range res.Failures {
			totalFailures += f
		}
	}
	if totalFailures == 0 {
		t.Fatal("no scenario produced any functional failure; classifiers or workloads are inert")
	}
}
