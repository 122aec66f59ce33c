package netlist

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// buildToggle returns a netlist with one FF toggling via an inverter, one
// input gated in, and one output.
func buildToggle(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("toggle")
	en := b.Input("en")
	fb := b.NewPlaceholder()
	d := b.Mux(fb.Net(), b.Not(fb.Net()), en)
	q := b.DFF("state", d, false)
	fb.Close(q)
	b.Output("q", q)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return nl
}

func TestBuilderToggle(t *testing.T) {
	nl := buildToggle(t)
	if len(nl.FFs()) != 1 {
		t.Fatalf("NumFFs = %d, want 1", len(nl.FFs()))
	}
	if len(nl.Inputs) != 1 || len(nl.Outputs) != 1 {
		t.Fatalf("ports = %d/%d, want 1/1", len(nl.Inputs), len(nl.Outputs))
	}
	st := nl.Stats()
	if st.FlipFlops != 1 || st.Combo < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxLevel < 1 {
		t.Fatalf("MaxLevel = %d, want >= 1", st.MaxLevel)
	}
}

func TestBuilderScope(t *testing.T) {
	b := NewBuilder("scoped")
	pop := b.Scope("sub")
	in := b.Input("a")
	q := b.DFF("r", in, true)
	pop()
	b.Output("q", q)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, ok := nl.FindNet("sub/a"); !ok {
		t.Fatal("scoped input name missing")
	}
	ff := nl.FFs()
	if len(ff) != 1 || nl.Cells[ff[0]].Name != "sub/r" {
		t.Fatalf("scoped FF name = %q", nl.Cells[ff[0]].Name)
	}
	if !nl.Cells[ff[0]].Init {
		t.Fatal("init not preserved")
	}
}

func TestBuilderAndOrTrees(t *testing.T) {
	b := NewBuilder("tree")
	ins := b.InputBus("x", 9)
	y := b.And(ins...)
	z := b.Or(ins...)
	b.Output("y", y)
	b.Output("z", z)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// 9 inputs need ceil(9/4)=3 first-level gates (4,4,1→passthrough) then 1.
	st := nl.Stats()
	if st.Combo == 0 {
		t.Fatal("no gates built")
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderSingleInputFold(t *testing.T) {
	b := NewBuilder("one")
	a := b.Input("a")
	if got := b.And(a); got != a {
		t.Fatal("And of one net must be the net itself")
	}
}

func TestBuilderConstLazy(t *testing.T) {
	b := NewBuilder("c")
	c0 := b.Const0()
	c1 := b.Const1()
	if c0 == None || c1 == None || c0 == c1 {
		t.Fatalf("consts wrong: %v %v", c0, c1)
	}
	if b.Const0() != c0 {
		t.Fatal("Const0 must be cached")
	}
	b.Output("zero", c0)
	b.Output("one", c1)
	if _, err := b.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestBuilderStickyError(t *testing.T) {
	b := NewBuilder("bad")
	// Missing net wiring triggers the sticky error.
	b.And(None, None)
	in := b.Input("a") // subsequent calls are no-ops
	if in != None {
		t.Fatal("builder must be inert after error")
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish must surface sticky error")
	}
}

func TestBuilderAndNoInputs(t *testing.T) {
	b := NewBuilder("bad2")
	b.And()
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected error for And()")
	}
}

func TestBuilderUnclosedPlaceholderFails(t *testing.T) {
	b := NewBuilder("dangling")
	p := b.NewPlaceholder()
	b.Output("o", p.Net())
	_, err := b.Finish()
	if !errors.Is(err, graphCycleErr(err)) && err == nil {
		t.Fatal("unclosed placeholder must fail validation")
	}
	if err == nil {
		t.Fatal("expected validation error")
	}
}

// graphCycleErr is a helper so the test reads clearly: any error is fine, we
// just assert that Finish fails.
func graphCycleErr(err error) error { return err }

func TestBuilderDuplicateFFName(t *testing.T) {
	b := NewBuilder("dup")
	a := b.Input("a")
	b.DFF("r", a, false)
	b.DFF("r", a, false)
	if _, err := b.Finish(); err == nil {
		t.Fatal("duplicate FF names must fail")
	}
}

func TestDFFDeclFeedback(t *testing.T) {
	b := NewBuilder("cnt1")
	q, setD := b.DFFDecl("bit", false)
	setD(b.Not(q))
	b.Output("q", q)
	nl, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	ff := nl.FFs()
	if len(ff) != 1 {
		t.Fatalf("FFs = %d, want 1", len(ff))
	}
	d := nl.Cells[ff[0]].Inputs[0]
	if nl.Nets[d].Driver < 0 || nl.Cells[nl.Nets[d].Driver].Type.Func != FuncInv {
		t.Fatal("DFF D pin must be the inverter output")
	}
}

func TestDFFDeclUnwiredFails(t *testing.T) {
	b := NewBuilder("bad")
	q, _ := b.DFFDecl("bit", false)
	b.Output("q", q)
	if _, err := b.Finish(); err == nil {
		t.Fatal("unwired DFFDecl must fail Finish")
	}
}

func TestDFFDeclDoubleWireFails(t *testing.T) {
	b := NewBuilder("bad2")
	q, setD := b.DFFDecl("bit", false)
	setD(q)
	setD(q)
	if _, err := b.Finish(); err == nil {
		t.Fatal("double-wired DFFDecl must fail Finish")
	}
}

func TestValidateCatchesCombLoop(t *testing.T) {
	// Hand-build a combinational loop: inv driving itself.
	nl := NewNetlist("loop")
	lib := StdLib()
	inv, _ := lib.Lookup("INV_X1")
	out, _ := nl.AddNet("n0", 0)
	nl.Cells = append(nl.Cells, Cell{Name: "u0", Type: inv, Inputs: []NetID{out}, Output: out})
	nl.Outputs = append(nl.Outputs, out)
	if err := nl.Validate(); err == nil {
		t.Fatal("comb loop must fail validation")
	}
}

func TestValidatePinCount(t *testing.T) {
	nl := NewNetlist("pins")
	lib := StdLib()
	and2, _ := lib.Lookup("AND2_X1")
	in, _ := nl.AddNet("a", -1)
	nl.Inputs = append(nl.Inputs, in)
	out, _ := nl.AddNet("y", 0)
	nl.Cells = append(nl.Cells, Cell{Name: "u0", Type: and2, Inputs: []NetID{in}, Output: out})
	err := nl.Validate()
	if !errors.Is(err, ErrBadPinout) {
		t.Fatalf("err = %v, want ErrBadPinout", err)
	}
}

func TestValidateUndriven(t *testing.T) {
	nl := NewNetlist("undriven")
	_, _ = nl.AddNet("floating", -1) // not registered as input
	if err := nl.Validate(); !errors.Is(err, ErrUndriven) {
		t.Fatalf("err = %v, want ErrUndriven", err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	nl := buildToggle(t)
	var buf bytes.Buffer
	if err := Write(&buf, nl); err != nil {
		t.Fatalf("Write: %v", err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.Name != nl.Name {
		t.Fatalf("name = %q, want %q", parsed.Name, nl.Name)
	}
	if len(parsed.Cells) != len(nl.Cells) || len(parsed.Nets) != len(nl.Nets) {
		t.Fatalf("shape mismatch: %d/%d cells, %d/%d nets",
			len(parsed.Cells), len(nl.Cells), len(parsed.Nets), len(nl.Nets))
	}
	for i := range nl.Cells {
		if parsed.Cells[i].Type.Name != nl.Cells[i].Type.Name {
			t.Fatalf("cell %d type %q vs %q", i, parsed.Cells[i].Type.Name, nl.Cells[i].Type.Name)
		}
		if parsed.Cells[i].Init != nl.Cells[i].Init {
			t.Fatalf("cell %d init mismatch", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no design", "input a\n"},
		{"dup design", "design a\ndesign b\n"},
		{"bad statement", "design d\nfrobnicate x\n"},
		{"bad clause", "design d\ninput a\ncell u INV_X1 out=y weird=1 in=a\n"},
		{"missing out", "design d\ninput a\ncell u INV_X1 in=a\n"},
		{"unknown type", "design d\ninput a\ncell u WAT_X1 out=y in=a\noutput y\n"},
		{"unknown in net", "design d\ncell u INV_X1 out=y in=ghost\noutput y\n"},
		{"unknown output", "design d\ninput a\noutput ghost\n"},
		{"bad init", "design d\ninput a\ncell u DFF_X1 out=q in=a init=7\n"},
		{"dup net", "design d\ninput a\ninput a\n"},
		{"input arity", "design d\ninput\n"},
		{"output arity", "design d\noutput\n"},
		{"design arity", "design\n"},
		{"cell arity", "design d\ncell u\n"},
		{"malformed clause", "design d\ninput a\ncell u INV_X1 out=y inx\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.src)); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.src)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	src := `
# a comment
design d

input a
cell u1 INV_X1 out=y in=a
output y
`
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(nl.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(nl.Cells))
	}
}

func TestParseForwardReference(t *testing.T) {
	// DFF reads a net declared later in the file.
	src := `design d
input a
cell ff DFF_X1 out=q in=later init=1
cell g1 AND2_X1 out=later in=a,q
output q
`
	nl, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(nl.FFs()) != 1 {
		t.Fatalf("NumFFs = %d", len(nl.FFs()))
	}
}

func TestStatsCycle(t *testing.T) {
	nl := NewNetlist("loop")
	lib := StdLib()
	inv, _ := lib.Lookup("INV_X1")
	out, _ := nl.AddNet("n0", 0)
	nl.Cells = append(nl.Cells, Cell{Name: "u0", Type: inv, Inputs: []NetID{out}, Output: out})
	if st := nl.Stats(); st.MaxLevel != -1 {
		t.Fatalf("MaxLevel = %d, want -1 for cyclic", st.MaxLevel)
	}
}
