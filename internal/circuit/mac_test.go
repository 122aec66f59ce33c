package circuit_test

import (
	"bytes"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// buildMAC compiles the default 1054-FF MAC and its testbench once per test
// run; building is cheap enough to repeat but sharing keeps tests fast.
func buildMAC(t *testing.T) (*sim.Program, *circuit.MACBench) {
	t.Helper()
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		t.Fatalf("NewMAC10GE: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bench, err := circuit.BuildMACBench(p, circuit.DefaultMACBenchConfig())
	if err != nil {
		t.Fatalf("BuildMACBench: %v", err)
	}
	return p, bench
}

func TestMACHasPaperFFCount(t *testing.T) {
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		t.Fatalf("NewMAC10GE: %v", err)
	}
	if got := len(nl.FFs()); got != 1054 {
		t.Fatalf("NumFFs = %d, want 1054 (the paper's circuit)", got)
	}
	st := nl.Stats()
	if st.MaxLevel < 3 {
		t.Fatalf("MaxLevel = %d, suspiciously shallow", st.MaxLevel)
	}
	t.Logf("MAC10GE-lite: %d cells (%d FF, %d comb), %d nets, depth %d",
		st.Cells, st.FlipFlops, st.Combo, st.Nets, st.MaxLevel)
}

func TestMACConfigValidation(t *testing.T) {
	cases := []circuit.MACConfig{
		{FIFODepth: 3, StatWidth: 24},
		{FIFODepth: 32, StatWidth: 4},
		{FIFODepth: 32, StatWidth: 64},
		{FIFODepth: 32, StatWidth: 24, TargetFFs: -1},
		{FIFODepth: 32, StatWidth: 24, TargetFFs: 10}, // below structural minimum
	}
	for i, cfg := range cases {
		if _, err := circuit.NewMAC10GE(cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
}

func TestMACLoopbackDeliversAllPackets(t *testing.T) {
	p, bench := buildMAC(t)
	e := sim.NewEngine(p)
	trace, _ := sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors})

	got := bench.LanePackets(trace, 0)
	if len(got) != len(bench.Packets) {
		t.Fatalf("received %d packets, sent %d", len(got), len(bench.Packets))
	}
	for i, pkt := range got {
		if pkt.Err {
			t.Fatalf("packet %d flagged with CRC error in golden run", i)
		}
		if !bytes.Equal(pkt.Payload, bench.Packets[i]) {
			t.Fatalf("packet %d payload mismatch:\n got  %x\n want %x",
				i, pkt.Payload, bench.Packets[i])
		}
	}
}

func TestMACStatisticsReadout(t *testing.T) {
	p, bench := buildMAC(t)
	e := sim.NewEngine(p)
	trace, _ := sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors})

	stats := bench.LaneStats(trace, 0)
	bytesPer := (circuit.DefaultMACConfig().StatWidth + 7) / 8
	if len(stats) < 6*bytesPer {
		t.Fatalf("stats readout too short: %d", len(stats))
	}
	counter := func(slot int) int {
		v := 0
		for b := 0; b < bytesPer; b++ {
			v |= int(stats[slot*bytesPer+b]) << uint(8*b)
		}
		return v
	}
	if got := counter(0); got != len(bench.Packets) {
		t.Fatalf("tx_frames = %d, want %d", got, len(bench.Packets))
	}
	var wantBytes int
	for _, pl := range bench.Packets {
		wantBytes += len(pl)
	}
	if got := counter(1); got != wantBytes {
		t.Fatalf("tx_bytes = %d, want %d", got, wantBytes)
	}
	if got := counter(2); got != len(bench.Packets) {
		t.Fatalf("rx_frames = %d, want %d", got, len(bench.Packets))
	}
	if got := counter(3); got != 0 {
		t.Fatalf("rx_crc_err = %d, want 0 in golden run", got)
	}
	if got := counter(4); got != wantBytes {
		t.Fatalf("rx_bytes = %d, want %d", got, wantBytes)
	}
	if got := counter(5); got != 0 {
		t.Fatalf("tx_drops = %d, want 0 in golden run", got)
	}
}

func TestMACActivityIsPlausible(t *testing.T) {
	p, bench := buildMAC(t)
	e := sim.NewEngine(p)
	_, act := sim.Run(e, bench.Stim, sim.RunConfig{CollectActivity: true})
	if act == nil {
		t.Fatal("no activity")
	}
	busy := 0
	for i := range act.Toggles {
		if act.Toggles[i] > 0 {
			busy++
		}
	}
	// A healthy run toggles a sizable share of the design.
	if busy < p.NumFFs()/4 {
		t.Fatalf("only %d of %d FFs toggled — testbench too idle", busy, p.NumFFs())
	}
}

func TestMACFaultCanCorruptPayload(t *testing.T) {
	// Sanity for the fault model: flipping a TX FIFO data bit while a
	// payload byte is in flight must either corrupt a packet or be benign,
	// and flipping *some* FF during the active window must produce at
	// least one failing lane. Try a batch of 64 distinct targets.
	p, bench := buildMAC(t)
	e := sim.NewEngine(p)
	golden, _ := sim.Run(e, bench.Stim, sim.RunConfig{Monitors: bench.Monitors})
	goldenPkts := bench.LanePackets(golden, 0)

	injectCycle := 3 // while the first packet streams into the FIFO
	e2 := sim.NewEngine(p)
	faulty, _ := sim.Run(e2, bench.Stim, sim.RunConfig{
		Monitors: bench.Monitors,
		PreEval: func(c int) {
			if c == injectCycle {
				for lane := 0; lane < 64; lane++ {
					e2.FlipFF(lane*7%p.NumFFs(), 1<<uint(lane))
				}
			}
		},
	})
	anyFailure := false
	for lane := 0; lane < 64; lane++ {
		pkts := bench.LanePackets(faulty, lane)
		if len(pkts) != len(goldenPkts) {
			anyFailure = true
			break
		}
		for i := range pkts {
			if pkts[i].Err != goldenPkts[i].Err || !bytes.Equal(pkts[i].Payload, goldenPkts[i].Payload) {
				anyFailure = true
			}
		}
	}
	if !anyFailure {
		t.Fatal("64 random SEUs during packet streaming all benign — fault path broken?")
	}
}

func TestSynthesizeAssignsDrives(t *testing.T) {
	nl, err := circuit.NewMAC10GE(circuit.DefaultMACConfig())
	if err != nil {
		t.Fatalf("NewMAC10GE: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	counts := map[int]int{}
	for i := range nl.Cells {
		counts[nl.Cells[i].Type.Drive]++
	}
	if counts[2] == 0 || counts[4] == 0 {
		t.Fatalf("expected a mix of drive strengths, got %v", counts)
	}
	// Fanout rule spot check.
	fanout := circuit.Fanout(nl)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		f := fanout[c.Output]
		want := 1
		switch {
		case f >= 6:
			want = 4
		case f >= 3:
			want = 2
		}
		if c.Type.Name == "TIEL" || c.Type.Name == "TIEH" {
			continue
		}
		if c.Type.Drive != want {
			t.Fatalf("cell %q fanout %d has drive X%d, want X%d", c.Name, f, c.Type.Drive, want)
		}
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid after synthesis: %v", err)
	}
}

func TestBenchConfigValidation(t *testing.T) {
	bad := []circuit.MACBenchConfig{
		{Packets: 0, MinPayload: 4, MaxPayload: 8, Gap: 8, FIFODepth: 32},
		{Packets: 1, MinPayload: 0, MaxPayload: 8, Gap: 8, FIFODepth: 32},
		{Packets: 1, MinPayload: 9, MaxPayload: 8, Gap: 8, FIFODepth: 32},
		{Packets: 1, MinPayload: 4, MaxPayload: 20, Gap: 8, FIFODepth: 32},
		{Packets: 1, MinPayload: 4, MaxPayload: 8, Gap: 0, FIFODepth: 32},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: %+v must be rejected", i, cfg)
		}
	}
	if err := circuit.DefaultMACBenchConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}
