package circuit_test

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// aluModel is the software reference for one ALU operation at the given
// datapath width; it returns the result and the carry flag (meaningful for
// add/sub only). The gate-level pipeline is checked against it.
func aluModel(width, op int, a, bv uint64) (uint64, bool) {
	mask := uint64(1)<<uint(width) - 1
	a &= mask
	bv &= mask
	switch op {
	case circuit.ALUAdd:
		s := a + bv
		return s & mask, s>>uint(width)&1 == 1
	case circuit.ALUSub:
		s := a + (^bv & mask) + 1
		return s & mask, s>>uint(width)&1 == 1
	case circuit.ALUAnd:
		return a & bv, false
	case circuit.ALUOr:
		return a | bv, false
	case circuit.ALUXor:
		return a ^ bv, false
	case circuit.ALUShl:
		return a << 1 & mask, false
	case circuit.ALUShr:
		return a >> 1, false
	default:
		return a, false
	}
}

// aluDriver drives a compiled ALUPipe cycle by cycle.
type aluDriver struct {
	e        *sim.Engine
	inValid  int
	op       []int
	a, b     []int
	outValid int
	result   []int
	carry    int
	zero     int
	width    int
}

func newALUDriver(t *testing.T, cfg circuit.ALUConfig) *aluDriver {
	t.Helper()
	nl, err := circuit.NewALUPipe(cfg)
	if err != nil {
		t.Fatalf("NewALUPipe: %v", err)
	}
	if err := circuit.Synthesize(nl); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	p, err := sim.Compile(nl)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	d := &aluDriver{e: sim.NewEngine(p), width: cfg.Width}
	if d.inValid, err = p.InputIndex("in_valid"); err != nil {
		t.Fatal(err)
	}
	if d.op, err = p.InputBusIndices("op", 3); err != nil {
		t.Fatal(err)
	}
	if d.a, err = p.InputBusIndices("a", cfg.Width); err != nil {
		t.Fatal(err)
	}
	if d.b, err = p.InputBusIndices("b", cfg.Width); err != nil {
		t.Fatal(err)
	}
	if d.outValid, err = p.OutputIndex("out_valid"); err != nil {
		t.Fatal(err)
	}
	if d.result, err = p.OutputBusIndices("result", cfg.Width); err != nil {
		t.Fatal(err)
	}
	if d.carry, err = p.OutputIndex("carry"); err != nil {
		t.Fatal(err)
	}
	if d.zero, err = p.OutputIndex("zero"); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *aluDriver) setBus(ports []int, v uint64) {
	for i, port := range ports {
		d.e.SetInputBool(port, v>>uint(i)&1 == 1)
	}
}

func (d *aluDriver) readBus(ports []int) uint64 {
	var v uint64
	for i, port := range ports {
		if d.e.Output(port)&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// step clocks one cycle with the given inputs and returns the post-Eval
// output sample.
func (d *aluDriver) step(valid bool, op int, a, b uint64) (outValid bool, result uint64, carry, zero bool) {
	d.e.SetInputBool(d.inValid, valid)
	d.setBus(d.op, uint64(op))
	d.setBus(d.a, a)
	d.setBus(d.b, b)
	d.e.Eval()
	outValid = d.e.Output(d.outValid)&1 == 1
	result = d.readBus(d.result)
	carry = d.e.Output(d.carry)&1 == 1
	zero = d.e.Output(d.zero)&1 == 1
	d.e.Commit()
	return
}

// The pipeline must reproduce the software model for every opcode with a
// three-cycle latency, including the carry and zero flags.
func TestALUPipeMatchesModel(t *testing.T) {
	for _, cfg := range []circuit.ALUConfig{circuit.SmallALUConfig(), circuit.DefaultALUConfig()} {
		d := newALUDriver(t, cfg)
		rng := rand.New(rand.NewSource(7))
		type input struct {
			op   int
			a, b uint64
		}
		var sent []input
		var got []struct {
			result      uint64
			carry, zero bool
		}
		const n = 200
		mask := uint64(1)<<uint(cfg.Width) - 1
		for c := 0; c < n+8; c++ {
			valid := c < n && rng.Intn(4) != 0 // ~75% duty cycle
			in := input{op: rng.Intn(8), a: rng.Uint64() & mask, b: rng.Uint64() & mask}
			if rng.Intn(8) == 0 {
				in.b = in.a // force zero results through sub/xor
			}
			ov, res, carry, zero := d.step(valid, in.op, in.a, in.b)
			if valid {
				sent = append(sent, in)
			}
			if ov {
				got = append(got, struct {
					result      uint64
					carry, zero bool
				}{res, carry, zero})
			}
		}
		if len(got) != len(sent) {
			t.Fatalf("width %d: %d inputs produced %d outputs", cfg.Width, len(sent), len(got))
		}
		for i, in := range sent {
			wantRes, wantCarry := aluModel(cfg.Width, in.op, in.a, in.b)
			if got[i].result != wantRes {
				t.Fatalf("width %d op %d: a=%#x b=%#x → %#x, want %#x",
					cfg.Width, in.op, in.a, in.b, got[i].result, wantRes)
			}
			if in.op <= circuit.ALUSub && got[i].carry != wantCarry {
				t.Fatalf("width %d op %d: a=%#x b=%#x → carry %v, want %v",
					cfg.Width, in.op, in.a, in.b, got[i].carry, wantCarry)
			}
			if got[i].zero != (wantRes == 0) {
				t.Fatalf("width %d op %d: a=%#x b=%#x → zero %v for result %#x",
					cfg.Width, in.op, in.a, in.b, got[i].zero, wantRes)
			}
		}
	}
}

// The default configuration must hit its FF budget exactly, and generation
// must be deterministic.
func TestALUPipeBudgetAndDeterminism(t *testing.T) {
	cfg := circuit.DefaultALUConfig()
	nl, err := circuit.NewALUPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nl.FFs()); got != cfg.TargetFFs {
		t.Fatalf("FF count %d, want %d", got, cfg.TargetFFs)
	}
	nl2, err := circuit.NewALUPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Fingerprint() != nl2.Fingerprint() {
		t.Fatal("two generations with the same config differ")
	}
}

func TestALUConfigValidate(t *testing.T) {
	for _, cfg := range []circuit.ALUConfig{
		{Width: 2}, {Width: 64}, {Width: 8, TargetFFs: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
	if _, err := circuit.NewALUPipe(circuit.ALUConfig{Width: 8, TargetFFs: 3}); err == nil {
		t.Error("unreachable TargetFFs accepted")
	}
}
