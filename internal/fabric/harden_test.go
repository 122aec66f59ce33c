package fabric_test

import (
	"testing"

	"repro/internal/api"
	"repro/internal/fabric"
	"repro/internal/fault"
)

// TestResolveSpecCanonicalizesHarden pins the wire contract: a harden list
// is sorted and deduplicated so equal selections serialize identically, and
// negative indices are rejected at resolve time.
func TestResolveSpecCanonicalizesHarden(t *testing.T) {
	spec, err := fabric.ResolveSpec(api.CampaignSpec{
		Scenario: "alupipe/randomops",
		Harden:   []int{5, 1, 3, 1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	if len(spec.Harden) != len(want) {
		t.Fatalf("Harden = %v, want %v", spec.Harden, want)
	}
	for i := range want {
		if spec.Harden[i] != want[i] {
			t.Fatalf("Harden = %v, want %v", spec.Harden, want)
		}
	}
	if _, err := fabric.ResolveSpec(api.CampaignSpec{
		Scenario: "alupipe/randomops",
		Harden:   []int{-1},
	}); err == nil {
		t.Fatal("negative harden index accepted")
	}
}

// TestBuildCampaignHardened checks a hardened spec materializes the
// TMR-rewritten design: more flip-flops (hence more jobs at the same
// per-FF budget), a different plan fingerprint, and full determinism — two
// nodes building the same hardened spec agree on every fingerprint, which
// is what lets the fabric distribute hardened verify campaigns.
func TestBuildCampaignHardened(t *testing.T) {
	base := api.CampaignSpec{Scenario: "alupipe/randomops", Seed: 1, InjectionsPerFF: 2}
	plain, err := fabric.BuildCampaign(base, fault.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spec := base
	spec.Harden = []int{0, 1, 2, 3}
	hard, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hard.M.NumFFs(), plain.M.NumFFs()+8; got != want {
		t.Fatalf("hardened campaign has %d FFs, want %d", got, want)
	}
	if len(hard.Jobs) <= len(plain.Jobs) {
		t.Fatalf("hardened campaign has %d jobs, plain has %d", len(hard.Jobs), len(plain.Jobs))
	}
	if hard.PlanHashHex() == plain.PlanHashHex() {
		t.Fatal("hardened plan fingerprint equals the unhardened one")
	}
	// The TMR invariant: the fault-free golden trace is bit-identical, so
	// the golden fingerprint must not change.
	if hard.GoldenHashHex() != plain.GoldenHashHex() {
		t.Fatal("hardened golden fingerprint differs; TMR rewrite changed fault-free behavior")
	}
	again, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if again.PlanHashHex() != hard.PlanHashHex() || again.GoldenHashHex() != hard.GoldenHashHex() {
		t.Fatal("hardened campaign build is not deterministic")
	}
	if _, err := fabric.BuildCampaign(api.CampaignSpec{
		Scenario: "alupipe/randomops", Seed: 1, InjectionsPerFF: 2,
		Harden: []int{1 << 20},
	}, fault.RunnerConfig{}); err == nil {
		t.Fatal("out-of-range harden index accepted")
	}
}
