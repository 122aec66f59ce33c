package harden_test

import (
	"testing"

	"repro/internal/api"
	"repro/internal/corpus"
	"repro/internal/fabric"
	"repro/internal/fault"
)

// TestTMRRewriteInvariantAcrossCorpus is the rewriter's property test over
// every corpus scenario, through the hardened campaign spec that ffr coord
// -harden and harden.Verify build: TMR-hardening any selection must change the
// netlist fingerprint while leaving the fault-free golden trace
// bit-identical under the unchanged workload. This is the precondition for
// comparing hardened and baseline campaigns at all — if the golden traces
// diverged, residual-FFR deltas would measure the rewrite, not the faults.
func TestTMRRewriteInvariantAcrossCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes every corpus scenario twice")
	}
	const seed = 1
	for _, sc := range corpus.List() {
		sc := sc
		t.Run(sc.ID(), func(t *testing.T) {
			t.Parallel()
			spec := api.CampaignSpec{Scenario: sc.ID(), Seed: seed, InjectionsPerFF: 1}
			plain, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
			if err != nil {
				t.Fatalf("BuildCampaign: %v", err)
			}
			base := plain.M
			// Harden every other flip-flop — a representative partial
			// selection including FF 0 and the last FF when odd-count.
			var sel []int
			for ff := 0; ff < base.NumFFs(); ff += 2 {
				sel = append(sel, ff)
			}
			spec.Harden = sel
			hardened, err := fabric.BuildCampaign(spec, fault.RunnerConfig{})
			if err != nil {
				t.Fatalf("BuildCampaign(Harden): %v", err)
			}
			hard := hardened.M
			if base.Netlist.Fingerprint() == hard.Netlist.Fingerprint() {
				t.Fatal("TMR rewrite left the netlist fingerprint unchanged")
			}
			if got, want := hard.NumFFs(), base.NumFFs()+2*len(sel); got != want {
				t.Fatalf("hardened design has %d FFs, want %d", got, want)
			}
			if !base.Golden.Equal(hard.Golden) {
				t.Fatal("hardened golden trace is not bit-identical to the baseline")
			}
		})
	}
}
