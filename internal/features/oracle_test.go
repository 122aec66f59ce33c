package features

import (
	"bytes"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Three netlists small enough to draw, with every feature of every flip-flop
// worked out by hand from the definitions in features.go — not from the
// extractor, and not from its predecessor (reference_test.go pins the
// extractor to that; nothing there says either is right). The stage graph
// has one node per flip-flop, primary input and primary output, and an edge
// u → v when u's value reaches v's D pin (or port) through combinational
// logic only; "stages" below are edges of that graph.

// shift4 is a 4-stage shift register with a synchronous clear on stage 2:
//
//	din ──► sr[0] ──► sr[1] ──┐
//	                          AND ──► sr[2] ──► sr[3] ──► BUF ──► dout
//	rstn ─────────────────────┘
//
// Stage graph: din → sr0 → sr1 → sr2 → sr3 → dout, rstn → sr2. No cycle.
const shift4 = `design shift4
input din
input rstn
cell sr[0] DFF_X1 out=q0 in=din init=0
cell sr[1] DFF_X1 out=q1 in=q0 init=0
cell u_rst AND2_X1 out=d2 in=q1,rstn
cell sr[2] DFF_X2 out=q2 in=d2 init=0
cell sr[3] DFF_X1 out=q3 in=q2 init=0
cell u_buf BUF_X1 out=y in=q3
output dout y
`

// shift4Activity is an 8-cycle run made up for the dynamic columns: at1 is
// ones/8, at0 the rest, state_changes the toggle count.
var shift4Activity = &sim.Activity{Cycles: 8, Ones: []int64{4, 2, 0, 8}, Toggles: []int64{3, 1, 0, 0}}

var shift4Want = map[string]Vector{
	// Fed by din alone, feeds sr[1] directly. Nothing upstream, the three
	// later stages downstream. din is 1 stage away and rstn never arrives;
	// dout is sr0 → sr1 → sr2 → sr3 → dout = 4 stages away.
	"sr[0]": {
		FFFanIn: 0, FFFanOut: 1, TotalFFsFrom: 0, TotalFFsTo: 3,
		ConnFromPI: 1, ConnToPO: 0,
		ProxPIMax: 1, ProxPIAvg: 1, ProxPIMin: 1,
		ProxPOMax: 4, ProxPOAvg: 4, ProxPOMin: 4,
		PartOfBus: 1, BusPosition: 0, BusLength: 4,
		ConnConst: 0, HasFeedback: 0, FeedbackDep: -1,
		DriveStrength: 1, CombFanIn: 0, CombFanOut: 0, CombDepth: 0,
		At0: 0.5, At1: 0.5, StateChanges: 3,
	},
	// Its output crosses one cell (u_rst) on the way to sr[2]: comb fan-out
	// 1, depth 1.
	"sr[1]": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 1, TotalFFsTo: 2,
		ConnFromPI: 0, ConnToPO: 0,
		ProxPIMax: 2, ProxPIAvg: 2, ProxPIMin: 2,
		ProxPOMax: 3, ProxPOAvg: 3, ProxPOMin: 3,
		PartOfBus: 1, BusPosition: 1, BusLength: 4,
		ConnConst: 0, HasFeedback: 0, FeedbackDep: -1,
		DriveStrength: 1, CombFanIn: 0, CombFanOut: 1, CombDepth: 1,
		At0: 0.75, At1: 0.25, StateChanges: 1,
	},
	// The input cone holds u_rst, sr[1] and rstn. Two inputs arrive: din
	// after 3 stages, rstn after 1 — max 3, average 2, min 1. An X2 cell.
	"sr[2]": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 2, TotalFFsTo: 1,
		ConnFromPI: 1, ConnToPO: 0,
		ProxPIMax: 3, ProxPIAvg: 2, ProxPIMin: 1,
		ProxPOMax: 2, ProxPOAvg: 2, ProxPOMin: 2,
		PartOfBus: 1, BusPosition: 2, BusLength: 4,
		ConnConst: 0, HasFeedback: 0, FeedbackDep: -1,
		DriveStrength: 2, CombFanIn: 1, CombFanOut: 0, CombDepth: 0,
		At0: 1, At1: 0, StateChanges: 0,
	},
	// Last stage: every other flip-flop upstream, none downstream, dout one
	// stage away through u_buf. din after 4 stages, rstn after 2.
	"sr[3]": {
		FFFanIn: 1, FFFanOut: 0, TotalFFsFrom: 3, TotalFFsTo: 0,
		ConnFromPI: 0, ConnToPO: 1,
		ProxPIMax: 4, ProxPIAvg: 3, ProxPIMin: 2,
		ProxPOMax: 1, ProxPOAvg: 1, ProxPOMin: 1,
		PartOfBus: 1, BusPosition: 3, BusLength: 4,
		ConnConst: 0, HasFeedback: 0, FeedbackDep: -1,
		DriveStrength: 1, CombFanIn: 0, CombFanOut: 1, CombDepth: 1,
		At0: 0, At1: 1, StateChanges: 0,
	},
}

// ring4 is a 4-flip-flop ring counter, closed through an enable gate, with
// one feed-forward tap from r0 past r1 into r2:
//
//	     ┌──────────────────────────────────────────────┐
//	     ▼                                              │
//	en ─►AND ─► r0 ─┬─► AND(·,1) ─► r1 ─┬─► OR ─► r2 ─► r3 ─┴─► INV ─► BUF ─► tc
//	                │                   │    ▲
//	                │                   └────┼──► mid
//	                └────────────────────────┘
//
// Stage graph: r0 → r1 → r2 → r3 → r0 (the ring), r0 → r2 (the tap),
// en → r0, r3 → tc, r1 → mid. All four flip-flops form one strongly
// connected component, so each is reached from, and reaches, all four —
// itself included, once. The tap closes a 3-stage loop r0 → r2 → r3 → r0;
// r1 lies only on the 4-stage ring.
const ring4 = `design ring4
input en
cell u_tie TIEH out=one
cell u_en AND2_X1 out=d0 in=q3,en
cell r0 DFF_X1 out=q0 in=d0 init=1
cell u_hold AND2_X1 out=d1 in=q0,one
cell r1 DFF_X1 out=q1 in=d1 init=0
cell u_tap OR2_X1 out=d2 in=q1,q0
cell r2 DFF_X2 out=q2 in=d2 init=0
cell r3 DFF_X1 out=q3 in=q2 init=0
cell u_inv INV_X1 out=ny in=q3
cell u_buf BUF_X1 out=y in=ny
output tc y
output mid q1
`

var ring4Want = map[string]Vector{
	// D = AND(q3, en): one flip-flop, one input, one cell in the cone. Q
	// feeds r1 (through u_hold) and r2 (through u_tap). en is 1 stage away.
	// tc: r0 → r2 → r3 → tc = 3 (the tap beats the ring's 4); mid:
	// r0 → r1 → mid = 2.
	"r0": {
		FFFanIn: 1, FFFanOut: 2, TotalFFsFrom: 4, TotalFFsTo: 4,
		ConnFromPI: 1, ConnToPO: 0,
		ProxPIMax: 1, ProxPIAvg: 1, ProxPIMin: 1,
		ProxPOMax: 3, ProxPOAvg: 2.5, ProxPOMin: 2,
		PartOfBus: 0, BusPosition: -1, BusLength: 0,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 3,
		DriveStrength: 1, CombFanIn: 1, CombFanOut: 2, CombDepth: 1,
	},
	// D = AND(q0, 1): the tie cell is a constant in the cone, not a cell of
	// it. Q feeds r2 through u_tap and the port mid directly. en: en → r0 →
	// r1 = 2. tc: r1 → r2 → r3 → tc = 3; mid: 1. Shortest loop: the whole
	// ring, 4.
	"r1": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 4, TotalFFsTo: 4,
		ConnFromPI: 0, ConnToPO: 1,
		ProxPIMax: 2, ProxPIAvg: 2, ProxPIMin: 2,
		ProxPOMax: 3, ProxPOAvg: 2, ProxPOMin: 1,
		PartOfBus: 0, BusPosition: -1, BusLength: 0,
		ConnConst: 1, HasFeedback: 1, FeedbackDep: 4,
		DriveStrength: 1, CombFanIn: 1, CombFanOut: 1, CombDepth: 1,
	},
	// D = OR(q1, q0): two flip-flops behind one cell. Q is wired straight
	// to r3. en: en → r0 → r2 = 2 (the tap again). tc: r2 → r3 → tc = 2;
	// mid: r2 → r3 → r0 → r1 → mid = 4. An X2 cell.
	"r2": {
		FFFanIn: 2, FFFanOut: 1, TotalFFsFrom: 4, TotalFFsTo: 4,
		ConnFromPI: 0, ConnToPO: 0,
		ProxPIMax: 2, ProxPIAvg: 2, ProxPIMin: 2,
		ProxPOMax: 4, ProxPOAvg: 3, ProxPOMin: 2,
		PartOfBus: 0, BusPosition: -1, BusLength: 0,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 3,
		DriveStrength: 2, CombFanIn: 1, CombFanOut: 0, CombDepth: 0,
	},
	// D = q2, no logic. Q feeds r0 through u_en and tc through u_inv then
	// u_buf: three cells, the longest chain two deep. en: en → r0 → r2 →
	// r3 = 3. tc: 1; mid: r3 → r0 → r1 → mid = 3.
	"r3": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 4, TotalFFsTo: 4,
		ConnFromPI: 0, ConnToPO: 1,
		ProxPIMax: 3, ProxPIAvg: 3, ProxPIMin: 3,
		ProxPOMax: 3, ProxPOAvg: 2, ProxPOMin: 1,
		PartOfBus: 0, BusPosition: -1, BusLength: 0,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 3,
		DriveStrength: 1, CombFanIn: 0, CombFanOut: 3, CombDepth: 2,
	},
}

// regfile2 is a register file of two 2-bit registers, rf/a and rf/b, on
// one write-data bus (d0, d1) and one read bus (dout0, dout1). Each register
// loads behind a MUX2 whose select is its load enable, so each flip-flop's
// D is MUX2(its own Q, d, we): it feeds back through its own hold mux. The
// read mux picks a (rsel = 0) or b; bit 1 leaves through a buffer.
//
//	d0 ─┬─► MUX(qa0,·,we_a) ─► rf/a[0] ─┬─► MUX(·,qb0,rsel) ─────────► dout0
//	    └─► MUX(qb0,·,we_b) ─► rf/b[0] ─┘
//	d1 ─┬─► MUX(qa1,·,we_a) ─► rf/a[1] ─┬─► MUX(·,qb1,rsel) ─► BUF ─► dout1
//	    └─► MUX(qb1,·,we_b) ─► rf/b[1] ─┘
//
// (each flip-flop's Q also returns to the first input of its own write mux.)
// Stage graph: a self-loop on every flip-flop; d0, we_a → rf/a[0];
// d1, we_a → rf/a[1]; d0, we_b → rf/b[0]; d1, we_b → rf/b[1];
// rf/a[0], rf/b[0], rsel → dout0; rf/a[1], rf/b[1], rsel → dout1. No
// flip-flop reaches another, so each is its own strongly connected
// component, cyclic through its self-loop: it is reached from, and reaches,
// itself alone, once, and its shortest loop is 1 stage. rsel reaches no
// flip-flop.
const regfile2 = `design regfile2
input d0
input d1
input we_a
input we_b
input rsel
cell u_wa0 MUX2_X1 out=da0 in=qa0,d0,we_a
cell rf/a[0] DFF_X1 out=qa0 in=da0 init=0
cell u_wa1 MUX2_X1 out=da1 in=qa1,d1,we_a
cell rf/a[1] DFF_X1 out=qa1 in=da1 init=0
cell u_wb0 MUX2_X1 out=db0 in=qb0,d0,we_b
cell rf/b[0] DFF_X2 out=qb0 in=db0 init=0
cell u_wb1 MUX2_X1 out=db1 in=qb1,d1,we_b
cell rf/b[1] DFF_X4 out=qb1 in=db1 init=0
cell u_rd0 MUX2_X1 out=y0 in=qa0,qb0,rsel
cell u_rd1 MUX2_X1 out=r1 in=qa1,qb1,rsel
cell u_obuf BUF_X1 out=y1 in=r1
output dout0 y0
output dout1 y1
`

// regfile2Activity is a 4-cycle run made up for the dynamic columns.
var regfile2Activity = &sim.Activity{Cycles: 4, Ones: []int64{1, 2, 3, 4}, Toggles: []int64{1, 2, 3, 1}}

var regfile2Want = map[string]Vector{
	// D = MUX2(qa0, d0, we_a): one cell in the cone, holding one flip-flop
	// (itself) and two inputs, no constant. Q reads into u_wa0, which feeds
	// only rf/a[0] back, and into u_rd0, which drives dout0: one flip-flop,
	// two cells, each chain one cell long. d0 and we_a are both 1 stage
	// away (max 1, average 1, min 1); dout0 is 1 stage away and dout1 never
	// reached. Bus rf/a, position 0 of 2.
	"rf/a[0]": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 1, TotalFFsTo: 1,
		ConnFromPI: 2, ConnToPO: 1,
		ProxPIMax: 1, ProxPIAvg: 1, ProxPIMin: 1,
		ProxPOMax: 1, ProxPOAvg: 1, ProxPOMin: 1,
		PartOfBus: 1, BusPosition: 0, BusLength: 2,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 1,
		DriveStrength: 1, CombFanIn: 1, CombFanOut: 2, CombDepth: 1,
		At0: 0.75, At1: 0.25, StateChanges: 1,
	},
	// As rf/a[0] with d1 and dout1, but the read path is u_rd1 then u_obuf:
	// three cells in the output cone, the longest chain two deep. The
	// buffer adds no stage: dout1 is still 1 stage away.
	"rf/a[1]": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 1, TotalFFsTo: 1,
		ConnFromPI: 2, ConnToPO: 1,
		ProxPIMax: 1, ProxPIAvg: 1, ProxPIMin: 1,
		ProxPOMax: 1, ProxPOAvg: 1, ProxPOMin: 1,
		PartOfBus: 1, BusPosition: 1, BusLength: 2,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 1,
		DriveStrength: 1, CombFanIn: 1, CombFanOut: 3, CombDepth: 2,
		At0: 0.5, At1: 0.5, StateChanges: 2,
	},
	// rf/a[0]'s twin on we_b, in bus rf/b — a bus of its own, not a third
	// and fourth member of rf/a. An X2 cell.
	"rf/b[0]": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 1, TotalFFsTo: 1,
		ConnFromPI: 2, ConnToPO: 1,
		ProxPIMax: 1, ProxPIAvg: 1, ProxPIMin: 1,
		ProxPOMax: 1, ProxPOAvg: 1, ProxPOMin: 1,
		PartOfBus: 1, BusPosition: 0, BusLength: 2,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 1,
		DriveStrength: 2, CombFanIn: 1, CombFanOut: 2, CombDepth: 1,
		At0: 0.25, At1: 0.75, StateChanges: 3,
	},
	// rf/a[1]'s twin on we_b, u_rd1 and u_obuf shared with it. An X4 cell.
	"rf/b[1]": {
		FFFanIn: 1, FFFanOut: 1, TotalFFsFrom: 1, TotalFFsTo: 1,
		ConnFromPI: 2, ConnToPO: 1,
		ProxPIMax: 1, ProxPIAvg: 1, ProxPIMin: 1,
		ProxPOMax: 1, ProxPOAvg: 1, ProxPOMin: 1,
		PartOfBus: 1, BusPosition: 1, BusLength: 2,
		ConnConst: 0, HasFeedback: 1, FeedbackDep: 1,
		DriveStrength: 4, CombFanIn: 1, CombFanOut: 3, CombDepth: 2,
		At0: 0, At1: 1, StateChanges: 1,
	},
}

func TestHandComputedFeatures(t *testing.T) {
	for _, c := range []struct {
		gnl  string
		act  *sim.Activity
		want map[string]Vector
	}{
		{shift4, shift4Activity, shift4Want},
		{ring4, nil, ring4Want},
		{regfile2, regfile2Activity, regfile2Want},
	} {
		nl, err := netlist.Parse(bytes.NewReader([]byte(c.gnl)))
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExtractor(nl)
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		m, err := ex.Extract(c.act)
		if err != nil {
			t.Fatalf("%s: %v", nl.Name, err)
		}
		if len(m.Rows) != len(c.want) {
			t.Fatalf("%s: %d flip-flops, worked out %d", nl.Name, len(m.Rows), len(c.want))
		}
		for i, inst := range m.InstanceNames {
			want, ok := c.want[inst]
			if !ok {
				t.Fatalf("%s: no hand computation for %s", nl.Name, inst)
			}
			for j, name := range Names() {
				if got := m.Rows[i][j]; got != want.Slice()[j] {
					t.Errorf("%s %s: %s = %v, by hand %v", nl.Name, inst, name, got, want.Slice()[j])
				}
			}
		}
	}
}
