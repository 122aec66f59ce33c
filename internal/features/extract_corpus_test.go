package features

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// extractDUT synthesizes a generated netlist, runs the given stimulus-free
// activity collection (every input idle), and extracts the full matrix —
// the shared fixture of the corpus-topology feature tests.
func extractDUT(t *testing.T, nl *netlist.Netlist, cycles int) *Matrix {
	t.Helper()
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var act *sim.Activity
	if cycles > 0 {
		p, err := sim.Compile(nl)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		e := sim.NewEngine(p)
		stim := sim.NewStimulus(cycles)
		_, act = sim.Run(e, stim, sim.RunConfig{CollectActivity: true})
	}
	ex, err := NewExtractor(nl)
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}
	m, err := ex.Extract(act)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(m.Rows) != len(nl.FFs()) {
		t.Fatalf("rows = %d, want %d", len(m.Rows), len(nl.FFs()))
	}
	return m
}

// meanOf averages a feature column over instances whose name matches the
// given prefix.
func meanOf(t *testing.T, m *Matrix, prefix string, col int) float64 {
	t.Helper()
	var sum float64
	n := 0
	for i, name := range m.InstanceNames {
		if strings.HasPrefix(name, prefix) {
			sum += m.Rows[i][col]
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no instances with prefix %q", prefix)
	}
	return sum / float64(n)
}

// Feature columns, by Names() order.
const (
	colFFFanIn    = 0
	colFFFanOut   = 1
	colPartOfBus  = 12
	colHasFB      = 16
	colFeedback   = 17
	colCombDepth  = 21
	colAt0        = 22
	colAt1        = 23
	colStateChg   = 24
	colTotalFFsTo = 3
)

// Arbiter topology: the round-robin pointer replicas close a feedback loop
// through the grant network; queue memory words are buses; grant counters
// feed back onto themselves.
func TestArbiterFeatureExtraction(t *testing.T) {
	nl, err := circuit.NewRRArb(circuit.SmallArbConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := extractDUT(t, nl, 0)

	// Pointer replicas sit on a sequential loop (ptr → grant → ptr).
	if got := meanOf(t, m, "rr/ptr", colHasFB); got != 1 {
		t.Errorf("pointer replicas not flagged as feedback: %v", got)
	}
	// Queue memory words are register buses.
	if got := meanOf(t, m, "q0/mem0", colPartOfBus); got != 1 {
		t.Errorf("queue memory not detected as bus: %v", got)
	}
	// Counters accumulate: every counter bit loops back to itself.
	if got := meanOf(t, m, "gnt1", colHasFB); got != 1 {
		t.Errorf("grant counter without feedback: %v", got)
	}
	// The arbiter pointer influences downstream state (queues pop, output
	// registers load): its transitive fan-out must dwarf its direct one.
	ptrTo := meanOf(t, m, "rr/ptr", colTotalFFsTo)
	if ptrTo < 20 {
		t.Errorf("pointer transitively reaches only %v FFs", ptrTo)
	}
	// Fan-in/fan-out must be populated and vary across the design.
	vals := map[float64]bool{}
	for _, row := range m.Rows {
		if row[colFFFanIn] < 0 || row[colFFFanOut] < 0 {
			t.Fatalf("negative fan degree")
		}
		vals[row[colFFFanIn]] = true
	}
	if len(vals) < 3 {
		t.Errorf("FF fan-in takes only %d distinct values across the arbiter", len(vals))
	}
}

// Serializer topology: the baud divider is free-running (it toggles with no
// stimulus at all, unlike the data path), the shift register forms a chain,
// and the frame counter loops.
func TestUARTFeatureExtraction(t *testing.T) {
	nl, err := circuit.NewUARTSer(circuit.SmallUARTConfig())
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 64
	m := extractDUT(t, nl, cycles)

	// The timer runs with idle inputs: state changes on the divider bits
	// must be nonzero while the FIFO memory stays frozen.
	if got := meanOf(t, m, "baud/div", colStateChg); got == 0 {
		t.Error("free-running baud divider shows no state changes")
	}
	if got := meanOf(t, m, "txfifo/mem", colStateChg); got != 0 {
		t.Errorf("idle FIFO memory toggled %v times", got)
	}
	// At0/At1 are complementary fractions.
	for i, row := range m.Rows {
		if at0, at1 := row[colAt0], row[colAt1]; at0+at1 < 0.999 || at0+at1 > 1.001 {
			t.Fatalf("FF %d: at0+at1 = %v", i, at0+at1)
		}
	}
	// The divider loops on itself (counter feedback).
	if got := meanOf(t, m, "baud/div", colHasFB); got != 1 {
		t.Error("baud divider not flagged as feedback")
	}
	// TMR frame-counter replicas exist and carry feedback through voters.
	if got := meanOf(t, m, "stat/frames_a", colHasFB); got != 1 {
		t.Error("hardened frame counter not flagged as feedback")
	}
}

// ALU topology: a feed-forward pipeline — stage-1 operand registers must
// show no feedback but deep combinational output cones, while the
// accumulator loops back with depth 1.
func TestALUFeatureExtraction(t *testing.T) {
	nl, err := circuit.NewALUPipe(circuit.SmallALUConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := extractDUT(t, nl, 0)

	// The valid-bit chain is pure feed-forward (plain DFFs); the operand
	// registers, by contrast, hold through an enable mux, which is a real
	// structural self-loop and must be flagged.
	if got := meanOf(t, m, "s1/valid", colHasFB); got != 0 {
		t.Errorf("feed-forward valid bit flagged as feedback: %v", got)
	}
	if got := meanOf(t, m, "s1/a", colHasFB); got != 1 {
		t.Errorf("enable-mux hold loop not flagged as feedback: %v", got)
	}
	if got := meanOf(t, m, "s3/acc", colHasFB); got != 1 {
		t.Error("accumulator not flagged as feedback")
	}
	if got := meanOf(t, m, "s3/acc", colFeedback); got != 1 {
		t.Errorf("accumulator loop depth %v, want 1 (self-loop through the adder)", got)
	}
	// Operand bits feed the ALU's ripple/mux network: the combinational
	// depth at stage-1 outputs must exceed the writeback register's.
	d1 := meanOf(t, m, "s1/a", colCombDepth)
	d3 := meanOf(t, m, "s3/res", colCombDepth)
	if d1 <= d3 {
		t.Errorf("execute-stage comb depth %v not deeper than writeback %v", d1, d3)
	}
	// Operand registers are buses.
	if got := meanOf(t, m, "s1/a", colPartOfBus); got != 1 {
		t.Error("operand register not detected as bus")
	}
}
