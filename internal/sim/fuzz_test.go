package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// kernelSeeds are hand-written .gnl netlists for the kernel compiler's wide
// fusion, grouped hold captures and capture coalescing: one per fused idiom,
// one per shape whose producer must stay an op because something else reads
// it, then one per reason a plain flip-flop keeps its clock-edge copy
// (TestCaptureCoalescingCensus holds each to the reason in its name).
var kernelSeeds = []struct{ name, gnl string }{
	{"or3 of and2s", `design ao222
input a
input b
input c
cell r0 DFF_X1 out=q0 in=y init=0
cell r1 DFF_X1 out=q1 in=q0 init=1
cell u0 AND2_X1 out=n0 in=a,q0
cell u1 AND2_X1 out=n1 in=b,q1
cell u2 AND2_X1 out=n2 in=c,q0
cell u3 OR3_X1 out=y in=n0,n1,n2
output o q1
`},
	{"mux chain on the else side", `design muxelse
input s0
input s1
input s2
input d
cell r0 DFF_X1 out=q0 in=m2 init=0
cell r1 DFF_X1 out=q1 in=q0 init=1
cell u0 MUX2_X1 out=m0 in=q0,q1,s0
cell u1 MUX2_X1 out=m1 in=m0,d,s1
cell u2 MUX2_X1 out=m2 in=m1,q1,s2
output o q1
`},
	{"mux chain on the then side", `design muxthen
input s0
input s1
input d
cell r0 DFF_X1 out=q0 in=m1 init=1
cell r1 DFF_X1 out=q1 in=q0 init=0
cell u0 MUX2_X1 out=m0 in=q0,q1,s0
cell u1 MUX2_X1 out=m1 in=d,m0,s1
output o q1
`},
	{"xor chain", `design xorchain
input a
input b
cell r0 DFF_X1 out=q0 in=x2 init=0
cell r1 DFF_X1 out=q1 in=q0 init=1
cell u0 XOR2_X1 out=x0 in=q0,q1
cell u1 XOR2_X1 out=x1 in=x0,a
cell u2 XOR2_X1 out=x2 in=b,x1
output o x2
`},
	{"and2 read twice", `design twice
input a
input b
cell r0 DFF_X1 out=q0 in=y init=0
cell u0 AND2_X1 out=n0 in=a,q0
cell u1 AND2_X1 out=n1 in=b,q0
cell u2 AND2_X1 out=n2 in=a,b
cell u3 OR3_X1 out=y in=n0,n1,n2
cell u4 XOR2_X1 out=z in=n0,b
output o z
`},
	{"mux that is a D net", `design muxd
input s0
input s1
input d
cell r0 DFF_X1 out=q0 in=m0 init=0
cell r1 DFF_X1 out=q1 in=m1 init=1
cell u0 MUX2_X1 out=m0 in=q1,d,s0
cell u1 MUX2_X1 out=m1 in=m0,q0,s1
output o q1
`},
	{"xors that are a hold's data and enable", `design holdxor
input a
input b
cell r0 DFF_X1 out=q0 in=a init=0
cell r1 DFF_X1 out=q1 in=b init=1
cell u0 XOR2_X1 out=x in=q0,a
cell u1 XOR2_X1 out=s in=q1,b
cell u2 MUX2_X1 out=hd in=qh,x,s
cell rh DFF_X1 out=qh in=hd init=0
cell u3 XOR2_X1 out=y0 in=x,b
cell u4 XOR2_X1 out=y1 in=a,s
output o0 y0
output o1 y1
output oh qh
`},
	{"and2 on an output port", `design andport
input a
input b
cell r0 DFF_X1 out=q0 in=y init=0
cell u0 AND2_X1 out=n0 in=a,q0
cell u1 AND2_X1 out=n1 in=b,q0
cell u2 AND2_X1 out=n2 in=a,b
cell u3 OR3_X1 out=y in=n0,n1,n2
output o n1
`},
	{"holds sharing an enable, one selected by its own q", `design sharedenable
input a
input b
cell r0 DFF_X1 out=q0 in=a init=0
cell r1 DFF_X1 out=q1 in=b init=1
cell ue XOR2_X1 out=en in=q0,q1
cell ux AND2_X1 out=x in=a,q0
cell m0 MUX2_X1 out=d0 in=h0,x,en
cell h0r DFF_X1 out=h0 in=d0 init=0
cell m1 MUX2_X1 out=d1 in=h1,b,en
cell h1r DFF_X1 out=h1 in=d1 init=1
cell m2 MUX2_X1 out=d2 in=x,h2,en
cell h2r DFF_X1 out=h2 in=d2 init=0
cell m3 MUX2_X1 out=d3 in=a,h3,en
cell h3r DFF_X1 out=h3 in=d3 init=1
cell m4 MUX2_X1 out=d4 in=h4,x,h4
cell h4r DFF_X1 out=h4 in=d4 init=1
output o0 h0
output o3 h3
`},
	{"coalescing refused: Q an output port", `design qport
input a
input b
cell r0 DFF_X1 out=q0 in=y init=0
cell u0 AND2_X1 out=y in=a,b
output o q0
`},
	{"coalescing refused: Q another FF's D", `design qshift
input a
input b
cell r0 DFF_X1 out=q0 in=y init=0
cell r1 DFF_X1 out=q1 in=q0 init=1
cell u0 XOR2_X1 out=y in=a,q1
cell u1 AND2_X1 out=z in=q1,b
output o z
`},
	{"coalescing refused: Q a hold's x/s", `design qhold
input a
input b
input s
cell r0 DFF_X1 out=q0 in=y init=0
cell u0 OR2_X1 out=y in=a,b
cell m0 MUX2_X1 out=hd in=qh,q0,s
cell rh DFF_X1 out=qh in=hd init=1
cell m1 MUX2_X1 out=ge in=gq,a,q0
cell rg DFF_X1 out=gq in=ge init=0
output o qh
output p gq
`},
	{"coalescing refused: Q read after D's op", `design qlate
input a
input b
cell r0 DFF_X1 out=q0 in=y init=0
cell u0 AND2_X1 out=y in=a,b
cell u1 XOR2_X1 out=z in=y,q0
output o z
`},
	{"coalescing refused: D not an op", `design dinput
input a
input b
cell r0 DFF_X1 out=q0 in=a init=1
cell u0 AND2_X1 out=z in=q0,b
output o z
`},
	{"coalescing refused: shared D", `design shared
input a
input b
cell r0 DFF_X1 out=q0 in=y init=0
cell r1 DFF_X1 out=q1 in=y init=1
cell u0 XOR2_X1 out=y in=a,q0
cell u1 AND2_X1 out=z in=q1,b
output o z
`},
}

// FuzzKernelMatchesEngine is differential: whatever netlist the parser
// accepts, its compiled kernel over a 4-word batch must match four packed
// Engines and the scalar reference through 16 seeded cycles of random inputs
// and flip-flop upsets, on every Eval implementation (matchInterpreters),
// and RunKernel must match Run's trace, activity and snapshots
// (runKernelMatchesRun).
func FuzzKernelMatchesEngine(f *testing.F) {
	for _, seed := range kernelSeeds {
		if _, err := netlist.Parse(bytes.NewReader([]byte(seed.gnl))); err != nil {
			f.Fatalf("seed %q does not parse: %v", seed.name, err)
		}
		f.Add([]byte(seed.gnl), int64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		nl, err := netlist.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(nl.Cells) > 4096 {
			t.Skip("large netlists are the property test's job")
		}
		p, err := sim.Compile(nl)
		if err != nil {
			return
		}
		k, err := sim.BuildKernel(p, sim.KernelConfig{})
		if err != nil {
			t.Fatalf("kernel of a compiled program: %v", err)
		}
		matchInterpreters(t, p, k, sim.DefaultKernelWords, 16, seed)
		runKernelMatchesRun(t, p, k, 16, seed)
	})
}
