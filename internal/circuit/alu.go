package circuit

import (
	"fmt"

	"repro/internal/netlist"
)

// ALUPipe is a three-stage pipelined ALU datapath — the classic processor
// execution-unit slice, and the corpus's pure-datapath DUT family: operand
// registers, an eight-operation execute stage, and a writeback stage with a
// hardened accumulator, an unhardened operation counter and a MISR-style
// signature register that makes transient datapath corruption observable at
// the outputs long after it happened.
//
// Port summary:
//
//	inputs:  in_valid, op[3], a[W], b[W]
//	outputs: out_valid, result[W], zero, carry
//	         acc[W]    running accumulated sum of results (TMR hardened)
//	         sig[W]    rotate-XOR signature of the result stream
//	         ops[8]    completed-operation counter (unhardened)
//
// Opcodes: 0 add, 1 sub, 2 and, 3 or, 4 xor, 5 shift left, 6 shift right,
// 7 pass-through of operand a.

// ALU opcodes.
const (
	ALUAdd = iota
	ALUSub
	ALUAnd
	ALUOr
	ALUXor
	ALUShl
	ALUShr
	ALUPass
)

// ALUConfig parameterizes the ALUPipe generator. Generation is fully
// deterministic: the same configuration always produces a
// fingerprint-identical netlist (there is no randomized structure).
type ALUConfig struct {
	// Width is the datapath width in bits (4..32).
	Width int
	// TargetFFs, when non-zero, pads the design with a live diagnostic
	// trace buffer until the flip-flop count reaches exactly this value.
	TargetFFs int
}

// DefaultALUConfig is the corpus default: a 16-bit datapath padded to a
// mid-size sequential budget.
func DefaultALUConfig() ALUConfig {
	return ALUConfig{Width: 16, TargetFFs: 256}
}

// SmallALUConfig is the smoke-test scale.
func SmallALUConfig() ALUConfig {
	return ALUConfig{Width: 8}
}

// Validate checks the configuration.
func (c ALUConfig) Validate() error {
	if c.Width < 4 || c.Width > 32 {
		return fmt.Errorf("circuit: ALU width %d out of range [4,32]", c.Width)
	}
	if c.TargetFFs < 0 {
		return fmt.Errorf("circuit: negative TargetFFs %d", c.TargetFFs)
	}
	return nil
}

// NewALUPipe generates the pipelined-ALU netlist.
func NewALUPipe(cfg ALUConfig) (*netlist.Netlist, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	W := cfg.Width
	b := netlist.NewBuilder("alupipe")

	inValid := b.Input("in_valid")
	opIn := b.InputBus("op", 3)
	aIn := b.InputBus("a", W)
	bIn := b.InputBus("b", W)

	// ---- Stage 1: operand fetch ------------------------------------------
	aReg := Register(b, "s1/a", aIn, inValid, 0)
	bReg := Register(b, "s1/b", bIn, inValid, 0)
	opReg := Register(b, "s1/op", opIn, inValid, 0)
	v1 := b.DFF("s1/valid", inValid, false)

	// ---- Stage 2: execute -------------------------------------------------
	sum, carryAdd := Adder(b, aReg, bReg, b.Const0())
	diff, carrySub := Adder(b, aReg, WordInv(b, bReg), b.Const1())
	shl := append(Word{b.Const0()}, aReg[:W-1]...)
	shr := append(append(Word{}, aReg[1:]...), b.Const0())
	results := []Word{
		ALUAdd:  sum,
		ALUSub:  diff,
		ALUAnd:  wordAnd(b, aReg, bReg),
		ALUOr:   wordOr(b, aReg, bReg),
		ALUXor:  WordXor(b, aReg, bReg),
		ALUShl:  shl,
		ALUShr:  shr,
		ALUPass: aReg,
	}
	selected := WordMuxTree(b, results, opReg)
	isAdd := EqualConst(b, opReg, ALUAdd)
	isSub := EqualConst(b, opReg, ALUSub)
	carryRaw := b.Or(b.And(isAdd, carryAdd), b.And(isSub, carrySub))

	res2 := Register(b, "s2/res", selected, v1, 0)
	carry2 := b.DFF("s2/carry", b.And(carryRaw, v1), false)
	v2 := b.DFF("s2/valid", v1, false)

	// ---- Stage 3: writeback ----------------------------------------------
	rOut := Register(b, "s3/res", res2, v2, 0)
	carryOut := b.DFF("s3/carry", carry2, false)
	v3 := b.DFF("s3/valid", v2, false)
	zero := b.DFF("s3/zero", b.And(EqualConst(b, res2, 0), v2), false)

	// Hardened running accumulator: results keep adding up, so a single
	// upset here corrupts every later readout — worth protecting, and the
	// protected/unprotected contrast is the population the models learn.
	acc := TMRWord(b, "s3/acc", W, 0, func(cur Word) Word {
		s, _ := Adder(b, cur, res2, b.Const0())
		return WordMux(b, cur, s, v2)
	})

	// MISR-style signature: rotate left, XOR in the result. Any corrupted
	// result permanently scrambles the signature.
	sig := StateWord(b, "s3/sig", W, 1, func(cur Word) Word {
		rot := append(append(Word{}, cur[W-1:]...), cur[:W-1]...)
		return WordMux(b, cur, WordXor(b, rot, res2), v2)
	})

	// Unhardened operation counter (the twin contrast to the accumulator).
	ops := Counter(b, "s3/ops", 8, v2, b.Const0())

	// ---- Diagnostic trace buffer (pads to the target FF budget) -----------
	tracePar, err := DiagTraceBuffer(b, cfg.TargetFFs, 4, b.Xor(rOut[0], v3))
	if err != nil {
		return nil, err
	}

	b.Output("out_valid", v3)
	b.OutputBus("result", rOut)
	b.Output("zero", zero)
	b.Output("carry", carryOut)
	b.OutputBus("acc", acc)
	b.OutputBus("sig", sig)
	b.OutputBus("ops", ops)
	b.Output("trace_par", tracePar)

	nl, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("circuit: building ALUPipe: %w", err)
	}
	return nl, nil
}

// wordAnd returns the bit-wise AND of equally sized buses.
func wordAnd(b *netlist.Builder, x, y Word) Word {
	w := make(Word, len(x))
	for i := range x {
		w[i] = b.And(x[i], y[i])
	}
	return w
}

// wordOr returns the bit-wise OR of equally sized buses.
func wordOr(b *netlist.Builder, x, y Word) Word {
	w := make(Word, len(x))
	for i := range x {
		w[i] = b.Or(x[i], y[i])
	}
	return w
}
