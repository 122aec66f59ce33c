package netlist

import "testing"

func TestStdLibLookup(t *testing.T) {
	lib := StdLib()
	for _, name := range []string{
		"TIEL", "TIEH", "INV_X1", "BUF_X4", "AND2_X1", "AND4_X2", "OR3_X4",
		"NAND2_X1", "NOR4_X4", "XOR2_X1", "XNOR2_X2", "MUX2_X1", "AOI21_X1",
		"OAI21_X2", "DFF_X1", "DFF_X4",
	} {
		ct, err := lib.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if ct.Name != name {
			t.Fatalf("Lookup(%q).Name = %q", name, ct.Name)
		}
	}
	if _, err := lib.Lookup("FANCY_X9"); err == nil {
		t.Fatal("expected error for unknown cell")
	}
}

// TestStdLibNamesSortedAndComplete: the library holds every cell type the
// generators and the parser draw on.
func TestStdLibNamesSortedAndComplete(t *testing.T) {
	lib := StdLib()
	if len(lib.byName) < 40 {
		t.Fatalf("library too small: %d types", len(lib.byName))
	}
}

func TestVariant(t *testing.T) {
	lib := StdLib()
	ct, _ := lib.Lookup("NAND2_X1")
	v, err := lib.Variant(ct, 4)
	if err != nil {
		t.Fatalf("Variant: %v", err)
	}
	if v.Name != "NAND2_X4" || v.Drive != 4 {
		t.Fatalf("Variant = %+v", v)
	}
	if _, err := lib.Variant(ct, 8); err == nil {
		t.Fatal("expected error for missing drive")
	}
	tie, _ := lib.Lookup("TIEL")
	if _, err := lib.Variant(tie, 2); err == nil {
		t.Fatal("TIEL has only X1")
	}
}

func TestIsSequential(t *testing.T) {
	lib := StdLib()
	dff, _ := lib.Lookup("DFF_X2")
	if !dff.IsSequential() {
		t.Fatal("DFF must be sequential")
	}
	and2, _ := lib.Lookup("AND2_X1")
	if and2.IsSequential() {
		t.Fatal("AND2 must not be sequential")
	}
}

// TestAreaUnits checks the ordering properties the hardening budget math
// relies on: every cell has positive area, stronger drives cost more but
// sublinearly, wider gates cost more, and a flip-flop dwarfs a NAND2.
func TestAreaUnits(t *testing.T) {
	lib := StdLib()
	for name, ct := range lib.byName {
		if ct.AreaUnits() <= 0 {
			t.Errorf("%s has non-positive area %v", name, ct.AreaUnits())
		}
	}
	area := func(name string) float64 {
		ct, err := lib.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return ct.AreaUnits()
	}
	if !(area("DFF_X1") < area("DFF_X2") && area("DFF_X2") < area("DFF_X4")) {
		t.Error("drive strength must increase area")
	}
	if area("DFF_X4") >= 2*area("DFF_X1") {
		t.Error("drive scaling must be sublinear")
	}
	if !(area("NAND2_X1") < area("NAND3_X1") && area("NAND3_X1") < area("NAND4_X1")) {
		t.Error("input count must increase area")
	}
	if area("NAND2_X1") != 1.0 {
		t.Errorf("NAND2_X1 is the unit cell, got %v", area("NAND2_X1"))
	}
	if area("DFF_X1") < 4*area("NAND2_X1") {
		t.Error("a flip-flop must cost several gate equivalents")
	}
}

func TestFuncString(t *testing.T) {
	if FuncNand.String() != "NAND" || FuncMux2.String() != "MUX2" {
		t.Fatal("Func.String wrong")
	}
	if Func(99).String() == "" {
		t.Fatal("unknown func must stringify")
	}
}

// truthCases pin down the scalar semantics of every combinational function.
func TestEvalScalarTruthTables(t *testing.T) {
	cases := []struct {
		f    Func
		in   []bool
		want bool
	}{
		{FuncConst0, nil, false},
		{FuncConst1, nil, true},
		{FuncBuf, []bool{true}, true},
		{FuncInv, []bool{true}, false},
		{FuncAnd, []bool{true, true, false}, false},
		{FuncAnd, []bool{true, true, true}, true},
		{FuncOr, []bool{false, false}, false},
		{FuncOr, []bool{false, true}, true},
		{FuncNand, []bool{true, true}, false},
		{FuncNand, []bool{true, false}, true},
		{FuncNor, []bool{false, false}, true},
		{FuncNor, []bool{true, false}, false},
		{FuncXor, []bool{true, true}, false},
		{FuncXor, []bool{true, false}, true},
		{FuncXnor, []bool{true, true}, true},
		{FuncXnor, []bool{true, false}, false},
		{FuncMux2, []bool{true, false, false}, true},  // sel=0 → A
		{FuncMux2, []bool{true, false, true}, false},  // sel=1 → B
		{FuncAOI21, []bool{true, true, false}, false}, // (A&B)|C = 1 → 0
		{FuncAOI21, []bool{true, false, false}, true},
		{FuncOAI21, []bool{false, false, true}, true}, // (A|B)&C = 0 → 1
		{FuncOAI21, []bool{true, false, true}, false},
	}
	for _, c := range cases {
		if got := EvalScalar(c.f, c.in); got != c.want {
			t.Errorf("EvalScalar(%v, %v) = %v, want %v", c.f, c.in, got, c.want)
		}
	}
}

func TestEvalScalarPanicsOnDFF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvalScalar(FuncDFF, []bool{true})
}
