package sim_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func compiledMAC(b testing.TB) (*sim.Program, *circuit.MACBench) {
	b.Helper()
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
	return p, bench
}

// BenchmarkEngineEvalCycle measures one evaluate+commit cycle of the packed
// engine on the full 1054-FF MAC — 64 concurrent simulations per op.
func BenchmarkEngineEvalCycle(b *testing.B) {
	p, _ := compiledMAC(b)
	e := sim.NewEngine(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval()
		e.Commit()
	}
}

// BenchmarkTestbenchRun measures one full 64-lane testbench pass (the unit
// of the fault campaign).
func BenchmarkTestbenchRun(b *testing.B) {
	p, bench := compiledMAC(b)
	e := sim.NewEngine(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors})
	}
	b.ReportMetric(float64(64*bench.Stim.Cycles()), "lane-cycles/op")
}

// BenchmarkScalarRun pins the cost ratio against the reference engine.
func BenchmarkScalarRun(b *testing.B) {
	p, bench := compiledMAC(b)
	e := sim.NewScalarEngine(p)
	monitors := bench.Monitors
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunScalar(e, bench.Stim, monitors, nil)
	}
}

// BenchmarkCompile measures netlist-to-program compilation.
func BenchmarkCompile(b *testing.B) {
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compile(nl); err != nil {
			b.Fatal(err)
		}
	}
}

// macKernelEngine compiles the MAC the way a campaign does — keeping the
// monitored ports and the loopback sources, pruning the rest — and returns
// a full-width engine on it.
func macKernelEngine(b *testing.B) *sim.KernelEngine {
	b.Helper()
	p, bench := compiledMAC(b)
	return sim.NewKernelEngine(campaignKernel(b, p, bench.Stim, bench.Monitors), sim.DefaultKernelWords)
}

// campaignKernel builds the kernel a campaign over the stimulus and monitors
// would: the monitored ports and the loopback sources kept, the rest pruned.
func campaignKernel(tb testing.TB, p *sim.Program, stim *sim.Stimulus, monitors []int) *sim.Kernel {
	tb.Helper()
	k, err := sim.BuildKernel(p, sim.KernelConfig{KeepOutputs: stim.ObservedOutputs(monitors)})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// reportLaneCycle reports the benchmarked cycle step per simulated lane.
func reportLaneCycle(b *testing.B, e *sim.KernelEngine) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(e.Lanes()), "ns/lane-cycle")
}

// BenchmarkKernelWindow measures a whole window on the compiled MAC kernel:
// RunWindowWide over the MAC stimulus from cycle 0, 256 lanes recording the
// monitored ports, once per Eval implementation (sub-benchmarks /avx, /go).
// Unlike the Eval and Commit benchmarks, which step a reset register file,
// its rows carry the stimulus's activity, so gates toggle and enables switch
// as they do in a campaign. An OnSnapshot hook that never stops the run
// makes it compare the state with every golden snapshot, as a campaign's
// window does.
func BenchmarkKernelWindow(b *testing.B) {
	p, bench := compiledMAC(b)
	stim, monitors := bench.Stim, bench.Monitors
	snaps := sim.NewSnapshots(p, stim, 0)
	sim.Run(sim.NewEngine(p), stim, sim.RunConfig{Monitors: monitors, Snapshots: snaps})
	k := campaignKernel(b, p, stim, monitors)
	for _, eval := range sim.PlatformEvals() {
		b.Run(eval, func(b *testing.B) {
			e := sim.NewKernelEngine(k, sim.DefaultKernelWords)
			e.UseEval(eval)
			cfg := sim.WideWindowConfig{
				Monitors:   monitors,
				Traces:     make([]*sim.Trace, e.Words()),
				OnSnapshot: func(int, []uint64) bool { return false },
			}
			for w := range cfg.Traces {
				cfg.Traces[w] = sim.NewTrace(monitors, stim.Cycles())
			}
			b.ReportAllocs()
			for b.Loop() {
				sim.RunWindowWide(e, stim, snaps, 0, cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(e.Lanes()*stim.Cycles()), "ns/lane-cycle")
		})
	}
}

// BenchmarkKernelEval measures one fused combinational pass of the compiled
// MAC kernel over a 256-lane batch — the campaign's inner loop — once per
// Eval implementation (sub-benchmarks /avx, /go).
func BenchmarkKernelEval(b *testing.B) {
	e := macKernelEngine(b)
	for _, eval := range sim.PlatformEvals() {
		b.Run(eval, func(b *testing.B) {
			e.UseEval(eval)
			b.ReportAllocs()
			for b.Loop() {
				e.Eval()
			}
			reportLaneCycle(b, e)
		})
	}
}

// BenchmarkKernelCommit measures the clock edge of the same engine: 1054
// flip-flop captures over 256 lanes.
func BenchmarkKernelCommit(b *testing.B) {
	e := macKernelEngine(b)
	e.Eval()
	b.ReportAllocs()
	for b.Loop() {
		e.Commit()
	}
	reportLaneCycle(b, e)
}
