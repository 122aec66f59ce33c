package features_test

import (
	"bytes"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
)

// fuzzSeeds are hand-written .gnl corner cases for the stage-graph
// analysis, one shape each.
var fuzzSeeds = []struct{ name, gnl string }{
	// extract_test.go's chain fixture: two register stages behind an input,
	// a primary output behind an AND, and a one-stage feedback register.
	{"chain", `design chain
input in
input in2
cell ff0 DFF_X1 out=q0 in=in init=0
cell u_inv INV_X1 out=n0 in=q0
cell ff1 DFF_X1 out=q1 in=n0 init=0
cell u_and AND2_X1 out=y in=q1,in2
cell u_mux MUX2_X1 out=d2 in=q2,in2,in
cell ff2 DFF_X1 out=q2 in=d2 init=0
output out y
output dbg q2
`},
	{"ff with a self-loop", `design selfloop
cell ff DFF_X1 out=q in=q init=1
output o q
`},
	{"ff with no fan-out", `design deadend
input a
cell dead DFF_X1 out=qd in=a init=1
cell live DFF_X1 out=ql in=a init=0
output o ql
`},
	{"output wired straight to an input", `design feedthrough
input a
cell ff DFF_X2 out=q in=a init=0
output thru a
output o q
`},
	{"two output ports on one net", `design twoports
input a
cell ff DFF_X1 out=q in=a init=0
cell u_buf BUF_X1 out=y in=q
output o1 y
output o2 y
output o3 q
`},
	{"constant-driven D pin", `design tied
cell u_tie TIEH out=one
cell ff DFF_X1 out=q in=one init=0
cell ff_b DFF_X1 out=qb in=q init=0
output o qb
`},
	// A ring of three registers whose members also form a bus, hanging off
	// one input and feeding one output through shared logic.
	{"ring and bus", `design ring
input en
cell r[0] DFF_X1 out=q0 in=d0 init=1
cell r[1] DFF_X1 out=q1 in=d1 init=0
cell r[2] DFF_X4 out=q2 in=d2 init=0
cell u0 AND2_X1 out=d0 in=q2,en
cell u1 OR2_X1 out=d1 in=q0,q2
cell u2 XOR2_X1 out=d2 in=q1,d1
cell tail DFF_X1 out=qt in=d2 init=0
output o qt
`},
	{"no flip-flops", `design comb
input a
input b
cell u NAND2_X1 out=y in=a,b
output o y
`},
	{"nothing at all", `design empty
`},
}

// FuzzExtractMatchesReference feeds arbitrary bytes through the netlist
// parser; whatever it accepts, the extractor must analyze without a panic
// and to the reference's bits.
func FuzzExtractMatchesReference(f *testing.F) {
	// Three small generated circuits, then the hand-written corner cases.
	for i, cfg := range []circuit.RandomConfig{
		{Inputs: 2, FFs: 4, Gates: 12, Outputs: 2},
		{Inputs: 1, FFs: 16, Gates: 24, Outputs: 4},
		{Inputs: 9, FFs: 30, Gates: 60, Outputs: 9},
	} {
		nl, err := circuit.RandomCircuit(cfg, int64(i+1))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := netlist.Write(&buf, nl); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range fuzzSeeds {
		if _, err := netlist.Parse(bytes.NewReader([]byte(seed.gnl))); err != nil {
			f.Fatalf("seed %q does not parse: %v", seed.name, err)
		}
		f.Add([]byte(seed.gnl))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, err := netlist.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(nl.Cells) > 2048 {
			t.Skip("the reference is quadratic")
		}
		checkAgainstReference(t, nl, nil)
	})
}
