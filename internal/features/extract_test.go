package features

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// chainCircuit builds: in → ff0 → inv → ff1 → and(in2) → out, plus a
// self-feedback register ff2 (enable loop) for loop features.
//
//	in ─────────────► ff0 ──inv──► ff1 ──and──► out
//	                                      ▲
//	in2 ──────────────────────────────────┘
//	ff2 ◄──mux(ff2, in2)  (feedback loop, depth 1)
func chainCircuit(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder("chain")
	in := b.Input("in")
	in2 := b.Input("in2")
	ff0 := b.DFF("ff0", in, false)
	ff1 := b.DFF("ff1", b.Not(ff0), false)
	y := b.And(ff1, in2)
	b.Output("out", y)
	ff2, set := b.DFFDecl("ff2", false)
	set(b.Mux(ff2, in2, in))
	b.Output("dbg", ff2)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return nl
}

func vectorOf(t *testing.T, m *Matrix, name string) Vector {
	t.Helper()
	for i, n := range m.InstanceNames {
		if n == name {
			row := m.Rows[i]
			var v Vector
			s := v.Slice()
			if len(s) != len(row) {
				t.Fatalf("schema drift: %d vs %d", len(s), len(row))
			}
			// Reconstruct via field order.
			return Vector{
				FFFanIn: row[0], FFFanOut: row[1], TotalFFsFrom: row[2], TotalFFsTo: row[3],
				ConnFromPI: row[4], ConnToPO: row[5],
				ProxPIMax: row[6], ProxPIAvg: row[7], ProxPIMin: row[8],
				ProxPOMax: row[9], ProxPOAvg: row[10], ProxPOMin: row[11],
				PartOfBus: row[12], BusPosition: row[13], BusLength: row[14],
				ConnConst: row[15], HasFeedback: row[16], FeedbackDep: row[17],
				DriveStrength: row[18], CombFanIn: row[19], CombFanOut: row[20], CombDepth: row[21],
				At0: row[22], At1: row[23], StateChanges: row[24],
			}
		}
	}
	t.Fatalf("instance %q not found in %v", name, m.InstanceNames)
	return Vector{}
}

func extract(t *testing.T, nl *netlist.Netlist) *Matrix {
	t.Helper()
	ex, err := NewExtractor(nl)
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}
	m, err := ex.Extract(nil)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return m
}

func TestChainStructuralFeatures(t *testing.T) {
	m := extract(t, chainCircuit(t))

	ff0 := vectorOf(t, m, "ff0")
	if ff0.FFFanIn != 0 || ff0.ConnFromPI != 1 {
		t.Fatalf("ff0 fan-in: %+v", ff0)
	}
	if ff0.FFFanOut != 1 {
		t.Fatalf("ff0 fan-out = %v, want 1 (ff1)", ff0.FFFanOut)
	}
	if ff0.TotalFFsFrom != 0 || ff0.TotalFFsTo != 1 {
		t.Fatalf("ff0 totals: %+v", ff0)
	}
	if ff0.ProxPIMin != 1 || ff0.ProxPIMax != 1 || ff0.ProxPIAvg != 1 {
		t.Fatalf("ff0 PI proximity: %+v", ff0)
	}
	// ff0 → ff1 → out: two stages to the PO.
	if ff0.ProxPOMin != 2 {
		t.Fatalf("ff0 ProxPOMin = %v, want 2", ff0.ProxPOMin)
	}
	if ff0.HasFeedback != 0 || ff0.FeedbackDep != -1 {
		t.Fatalf("ff0 feedback: %+v", ff0)
	}
	if ff0.CombFanIn != 0 {
		t.Fatalf("ff0 CombFanIn = %v, want 0 (direct input)", ff0.CombFanIn)
	}
	if ff0.CombFanOut != 1 {
		t.Fatalf("ff0 CombFanOut = %v, want 1 (the inverter)", ff0.CombFanOut)
	}
	if ff0.CombDepth != 1 {
		t.Fatalf("ff0 CombDepth = %v, want 1", ff0.CombDepth)
	}

	ff1 := vectorOf(t, m, "ff1")
	if ff1.FFFanIn != 1 || ff1.FFFanOut != 0 {
		t.Fatalf("ff1 fans: %+v", ff1)
	}
	if ff1.TotalFFsFrom != 1 || ff1.TotalFFsTo != 0 {
		t.Fatalf("ff1 totals: %+v", ff1)
	}
	if ff1.ConnToPO != 1 {
		t.Fatalf("ff1 ConnToPO = %v, want 1", ff1.ConnToPO)
	}
	if ff1.ProxPOMin != 1 || ff1.ProxPIMin != 2 {
		t.Fatalf("ff1 proximity: %+v", ff1)
	}
	if ff1.CombFanIn != 1 || ff1.CombFanOut != 1 || ff1.CombDepth != 1 {
		t.Fatalf("ff1 comb: %+v", ff1)
	}

	ff2 := vectorOf(t, m, "ff2")
	if ff2.HasFeedback != 1 || ff2.FeedbackDep != 1 {
		t.Fatalf("ff2 feedback: %+v", ff2)
	}
	if ff2.ConnToPO != 1 {
		t.Fatalf("ff2 ConnToPO = %v, want 1 (dbg)", ff2.ConnToPO)
	}
}

func TestBusDetection(t *testing.T) {
	b := netlist.NewBuilder("bus")
	in := b.Input("in")
	for i := 0; i < 4; i++ {
		b.Output(fmt.Sprintf("o%d", i), b.DFF(fmt.Sprintf("regs/data[%d]", i), in, false))
	}
	b.Output("single", b.DFF("lonely[0]", in, false))
	b.Output("plain", b.DFF("ctrl", in, false))
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	m := extract(t, nl)

	v := vectorOf(t, m, "regs/data[2]")
	if v.PartOfBus != 1 || v.BusPosition != 2 || v.BusLength != 4 {
		t.Fatalf("bus member features: %+v", v)
	}
	lone := vectorOf(t, m, "lonely[0]")
	if lone.PartOfBus != 0 || lone.BusPosition != -1 || lone.BusLength != 0 {
		t.Fatalf("singleton bus must not count: %+v", lone)
	}
	plain := vectorOf(t, m, "ctrl")
	if plain.PartOfBus != 0 {
		t.Fatalf("plain name not a bus: %+v", plain)
	}
}

func TestSplitBusName(t *testing.T) {
	cases := []struct {
		in   string
		base string
		pos  int
	}{
		{"regs/data[7]", "regs/data", 7},
		{"x[0]", "x", 0},
		{"plain", "plain", -1},
		{"weird]", "weird]", -1},
		{"bad[x]", "bad[x]", -1},
		{"neg[-2]", "neg[-2]", -1},
	}
	for _, c := range cases {
		base, pos := splitBusName(c.in)
		if base != c.base || pos != c.pos {
			t.Fatalf("splitBusName(%q) = %q,%d want %q,%d", c.in, base, pos, c.base, c.pos)
		}
	}
}

func TestConstantDriverFeature(t *testing.T) {
	b := netlist.NewBuilder("consts")
	in := b.Input("in")
	d := b.And(in, b.Const1())
	d = b.Or(d, b.Const0())
	q := b.DFF("ff", d, false)
	b.Output("o", q)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	v := vectorOf(t, extract(t, nl), "ff")
	if v.ConnConst != 2 {
		t.Fatalf("ConnConst = %v, want 2", v.ConnConst)
	}
}

func TestDynamicFeatures(t *testing.T) {
	nl := chainCircuit(t)
	ex, err := NewExtractor(nl)
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := sim.NewEngine(p)
	inIdx, _ := p.InputIndex("in")
	stim := sim.NewStimulus(8)
	set := stim.DrivePort(inIdx)
	for c := 0; c < 8; c++ {
		set(c, c%2 == 0) // alternate each cycle
	}
	_, act := sim.Run(e, stim, sim.RunConfig{CollectActivity: true})
	m, err := ex.Extract(act)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	ff0 := vectorOf(t, m, "ff0")
	if ff0.StateChanges == 0 {
		t.Fatal("ff0 must toggle under alternating input")
	}
	if ff0.At0+ff0.At1 < 0.999 || ff0.At0+ff0.At1 > 1.001 {
		t.Fatalf("at0+at1 = %v, want 1", ff0.At0+ff0.At1)
	}
	// Activity size mismatch must error.
	bad := &sim.Activity{Ones: []int64{1}, Toggles: []int64{1}, Cycles: 4}
	if _, err := ex.Extract(bad); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

// Either activity slice may be the short one; both are indexed per FF.
func TestExtractRejectsShortActivity(t *testing.T) {
	ex, err := NewExtractor(chainCircuit(t))
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}
	full := []int64{1, 2, 3}
	for name, act := range map[string]*sim.Activity{
		"no toggles":    {Ones: full, Toggles: nil, Cycles: 4},
		"short toggles": {Ones: full, Toggles: full[:2], Cycles: 4},
		"short ones":    {Ones: full[:2], Toggles: full, Cycles: 4},
		"long toggles":  {Ones: full, Toggles: append(full, 4), Cycles: 4},
	} {
		if _, err := ex.Extract(act); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ex.Extract(&sim.Activity{Ones: full, Toggles: full, Cycles: 4}); err != nil {
		t.Errorf("matching activity rejected: %v", err)
	}
}

func TestFeatureSchemaConsistency(t *testing.T) {
	if len(Names()) != NumFeatures {
		t.Fatal("Names/NumFeatures drift")
	}
	var v Vector
	if len(v.Slice()) != NumFeatures {
		t.Fatalf("Vector.Slice has %d fields, schema %d", len(v.Slice()), NumFeatures)
	}
	g := Groups()
	if len(g) != NumFeatures {
		t.Fatalf("Groups has %d entries", len(g))
	}
	if g[0] != GroupStructural || g[18] != GroupSynthesis || g[24] != GroupDynamic {
		t.Fatalf("group layout wrong: %v", g)
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestMACFeatureExtraction(t *testing.T) {
	nl, err := circuit.NewMAC10GE(circuit.MACConfig{FIFODepth: 8, StatWidth: 8})
	if err != nil {
		t.Fatalf("NewMAC10GE: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	ex, err := NewExtractor(nl)
	if err != nil {
		t.Fatalf("NewExtractor: %v", err)
	}
	m, err := ex.Extract(nil)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if len(m.Rows) != len(nl.FFs()) {
		t.Fatalf("rows = %d, want %d", len(m.Rows), len(nl.FFs()))
	}
	// Sanity: features vary across the population (a constant column
	// would be useless for regression); count distinct values per column.
	varying := 0
	for col := 0; col < NumFeatures; col++ {
		vals := map[float64]bool{}
		for _, row := range m.Rows {
			vals[row[col]] = true
		}
		if len(vals) > 1 {
			varying++
		}
	}
	if varying < NumFeatures-5 {
		t.Fatalf("only %d of %d features vary on the MAC", varying, NumFeatures)
	}
	// Bus membership must be common in a datapath design.
	busMembers := 0
	for _, row := range m.Rows {
		if row[12] == 1 {
			busMembers++
		}
	}
	if busMembers < len(m.Rows)/2 {
		t.Fatalf("only %d of %d FFs in buses", busMembers, len(m.Rows))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	nl := chainCircuit(t)
	m := extract(t, nl)
	target := make([]float64, len(m.Rows))
	for i := range target {
		target[i] = float64(i) / 10
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, target); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	m2, t2 := readCSV(t, &buf)
	if len(m2.Rows) != len(m.Rows) || len(t2) != len(target) {
		t.Fatal("shape mismatch after round trip")
	}
	for i := range m.Rows {
		if m2.InstanceNames[i] != m.InstanceNames[i] {
			t.Fatal("instance names differ")
		}
		for j := range m.Rows[i] {
			if m2.Rows[i][j] != m.Rows[i][j] {
				t.Fatalf("cell %d,%d differs: %v vs %v", i, j, m2.Rows[i][j], m.Rows[i][j])
			}
		}
		if t2[i] != target[i] {
			t.Fatal("targets differ")
		}
	}
}

func TestCSVWithoutTarget(t *testing.T) {
	m := extract(t, chainCircuit(t))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, nil); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "fdr") {
		t.Fatal("no-target CSV must not have fdr column")
	}
	if _, tgt := readCSV(t, &buf); tgt != nil {
		t.Fatal("target must be nil")
	}
}

func TestCSVErrors(t *testing.T) {
	m := extract(t, chainCircuit(t))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, []float64{1}); err == nil {
		t.Fatal("target length mismatch must fail")
	}
}
