package fault_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/sim"
)

// macFixture builds a small (not paper-scale) MAC and bench for fast tests.
var macFixture struct {
	once  sync.Once
	p     *sim.Program
	bench *circuit.MACBench
	err   error
}

func smallMAC(t testing.TB) (*sim.Program, *circuit.MACBench) {
	t.Helper()
	macFixture.once.Do(func() {
		nl, err := circuit.NewMAC10GE(circuit.MACConfig{FIFODepth: 16, StatWidth: 16, TargetFFs: 0})
		if err != nil {
			macFixture.err = err
			return
		}
		if err := circuit.Synthesize(nl); err != nil {
			macFixture.err = err
			return
		}
		p, err := sim.Compile(nl)
		if err != nil {
			macFixture.err = err
			return
		}
		cfg := circuit.MACBenchConfig{
			Packets: 4, MinPayload: 4, MaxPayload: 6, Gap: 10,
			DrainCycles: 40, Seed: 99, FIFODepth: 16,
		}
		bench, err := circuit.BuildMACBench(p, cfg)
		if err != nil {
			macFixture.err = err
			return
		}
		macFixture.p, macFixture.bench = p, bench
	})
	if macFixture.err != nil {
		t.Fatalf("fixture: %v", macFixture.err)
	}
	return macFixture.p, macFixture.bench
}

func TestNewPlanShape(t *testing.T) {
	jobs := fault.NewModelPlan(fault.Model{}, 10, 7, 100, 1)
	if len(jobs) != 70 {
		t.Fatalf("len = %d, want 70", len(jobs))
	}
	perFF := map[int]int{}
	for _, j := range jobs {
		perFF[j.FF]++
		if j.Cycle < 0 || j.Cycle >= 100 {
			t.Fatalf("cycle %d out of range", j.Cycle)
		}
	}
	for ff := 0; ff < 10; ff++ {
		if perFF[ff] != 7 {
			t.Fatalf("FF %d has %d jobs, want 7", ff, perFF[ff])
		}
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	a := fault.NewModelPlan(fault.Model{}, 5, 3, 50, 42)
	b := fault.NewModelPlan(fault.Model{}, 5, 3, 50, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("plans with equal seeds must match")
		}
	}
	c := fault.NewModelPlan(fault.Model{}, 5, 3, 50, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different plans")
	}
}

// runJobs executes an explicit injection plan on a fresh runner.
func runJobs(p *sim.Program, stim *sim.Stimulus, monitors []int, cls fault.Classifier, jobs []fault.Job, cfg fault.RunnerConfig) (*fault.Result, error) {
	r, err := fault.NewGoldenRunner(p, stim, monitors, cls, cfg)
	if err != nil {
		return nil, err
	}
	return r.RunContext(context.Background(), jobs)
}

func TestCampaignOnSmallMAC(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	res, err := runJobs(p, bench.Stim, bench.Monitors, cls,
		fault.NewModelPlan(fault.Model{}, p.NumFFs(), 4, bench.ActiveCycles, 7), fault.RunnerConfig{})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(res.FDR) != p.NumFFs() {
		t.Fatalf("FDR length %d, want %d", len(res.FDR), p.NumFFs())
	}
	if res.TotalRuns != p.NumFFs()*4 {
		t.Fatalf("TotalRuns = %d", res.TotalRuns)
	}
	var nonZero, outOfRange int
	for ff, v := range res.FDR {
		if v < 0 || v > 1 {
			outOfRange++
		}
		if v > 0 {
			nonZero++
		}
		if res.Injections[ff] != 4 {
			t.Fatalf("FF %d got %d injections, want 4", ff, res.Injections[ff])
		}
		if res.Failures[ff] > res.Injections[ff] {
			t.Fatalf("FF %d failures %d > injections", ff, res.Failures[ff])
		}
	}
	if outOfRange != 0 {
		t.Fatalf("%d FDR values out of [0,1]", outOfRange)
	}
	// The campaign must find both sensitive and robust flip-flops,
	// otherwise the regression problem is degenerate.
	if nonZero < p.NumFFs()/20 {
		t.Fatalf("only %d of %d FFs ever failed — classifier too lax?", nonZero, p.NumFFs())
	}
	if nonZero == p.NumFFs() {
		t.Fatal("every FF failed — classifier too strict?")
	}
	t.Logf("campaign: %v", fault.Summarize(res))
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	p, bench := smallMAC(t)
	run := func(workers int) *fault.Result {
		cls := fault.NewMACClassifier(bench, true)
		res, err := runJobs(p, bench.Stim, bench.Monitors, cls,
			fault.NewModelPlan(fault.Model{}, p.NumFFs(), 2, bench.ActiveCycles, 11), fault.RunnerConfig{Workers: workers})
		if err != nil {
			t.Fatalf("campaign (%d workers): %v", workers, err)
		}
		return res
	}
	a, b := run(1), run(4)
	for ff := range a.FDR {
		if a.FDR[ff] != b.FDR[ff] {
			t.Fatalf("FDR[%d] differs across worker counts: %v vs %v", ff, a.FDR[ff], b.FDR[ff])
		}
	}
}

func TestRunJobsExplicitPlan(t *testing.T) {
	p, bench := smallMAC(t)
	cls := fault.NewMACClassifier(bench, true)
	jobs := []fault.Job{{FF: 0, Cycle: 1}, {FF: 1, Cycle: 2}, {FF: 0, Cycle: 3}}
	res, err := runJobs(p, bench.Stim, bench.Monitors, cls, jobs,
		fault.RunnerConfig{Workers: 2})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if res.Injections[0] != 2 || res.Injections[1] != 1 {
		t.Fatalf("injections = %v", res.Injections[:2])
	}
	// Out-of-range jobs must be rejected.
	if _, err := runJobs(p, bench.Stim, bench.Monitors, cls,
		[]fault.Job{{FF: -1, Cycle: 0}}, fault.RunnerConfig{}); err == nil {
		t.Fatal("negative FF accepted")
	}
	if _, err := runJobs(p, bench.Stim, bench.Monitors, cls,
		[]fault.Job{{FF: 0, Cycle: 99999}}, fault.RunnerConfig{}); err == nil {
		t.Fatal("out-of-range cycle accepted")
	}
}

func TestClassifierBenignTimingShiftIgnored(t *testing.T) {
	// An injection into the IFG counter can delay frames without
	// corrupting them; such lanes must not be classified as failures
	// even though their traces differ from golden. We verify the weaker,
	// structural property: every classified failure has a concrete
	// packet/stat difference.
	p, bench := smallMAC(t)
	golden := goldenTrace(t)
	cls := fault.NewMACClassifier(bench, true)
	faulty, jobs := faultyTrace(t, 3)
	res, err := runJobs(p, bench.Stim, bench.Monitors, cls, jobs,
		fault.RunnerConfig{Workers: 1})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}

	// The campaign's verdicts must agree with a from-scratch packet
	// comparison of the same batch replayed whole.
	for lane, j := range jobs {
		wantFail := packetVerdict(bench, golden, faulty, lane, true)
		gotFail := res.Failures[j.FF] > 0
		// Multiple jobs can share an FF within the slice; only compare
		// when this FF appears once.
		count := 0
		for _, jj := range jobs {
			if jj.FF == j.FF {
				count++
			}
		}
		if count == 1 && gotFail != wantFail {
			t.Fatalf("lane %d (FF %d): classified fail=%v, reference says %v",
				lane, j.FF, gotFail, wantFail)
		}
	}
}
