package netlist

import (
	"fmt"
)

// Func identifies the logic function of a cell type.
type Func int

// Supported logic functions. Sequential cells (FuncDFF) hold one bit of
// state; everything else is combinational.
const (
	FuncConst0 Func = iota + 1 // ties output to logic 0 (TIEL)
	FuncConst1                 // ties output to logic 1 (TIEH)
	FuncBuf
	FuncInv
	FuncAnd
	FuncOr
	FuncNand
	FuncNor
	FuncXor
	FuncXnor
	FuncMux2  // output = S ? B : A, pins [A B S]
	FuncAOI21 // output = !((A&B) | C), pins [A B C]
	FuncOAI21 // output = !((A|B) & C), pins [A B C]
	FuncDFF   // D flip-flop, pins [D]; clock is implicit and global
)

// String returns the mnemonic for f.
func (f Func) String() string {
	switch f {
	case FuncConst0:
		return "CONST0"
	case FuncConst1:
		return "CONST1"
	case FuncBuf:
		return "BUF"
	case FuncInv:
		return "INV"
	case FuncAnd:
		return "AND"
	case FuncOr:
		return "OR"
	case FuncNand:
		return "NAND"
	case FuncNor:
		return "NOR"
	case FuncXor:
		return "XOR"
	case FuncXnor:
		return "XNOR"
	case FuncMux2:
		return "MUX2"
	case FuncAOI21:
		return "AOI21"
	case FuncOAI21:
		return "OAI21"
	case FuncDFF:
		return "DFF"
	default:
		return fmt.Sprintf("Func(%d)", int(f))
	}
}

// CellType describes one entry of the standard-cell library.
type CellType struct {
	Name   string // library name, e.g. "NAND2_X1"
	Func   Func
	Inputs int // number of input pins
	Drive  int // drive strength: 1, 2 or 4 (the X suffix)
}

// IsSequential reports whether the cell holds state.
func (ct *CellType) IsSequential() bool { return ct.Func == FuncDFF }

// AreaUnits returns the cell's area in gate-equivalent units, modelled on
// the NanGate FreePDK45 footprint ratios: a 2-input NAND at minimum drive
// is 1.0 and everything else scales from there. Hardening cost estimates
// (see internal/harden) budget in these units, so the model only needs to
// be *relatively* faithful — a flip-flop really is about five NAND2s, an
// X4 drive really is under twice its X1 footprint.
func (ct *CellType) AreaUnits() float64 {
	var base float64
	switch ct.Func {
	case FuncConst0, FuncConst1:
		base = 0.5
	case FuncBuf:
		base = 1.0
	case FuncInv:
		base = 0.5
	case FuncNand, FuncNor:
		base = 1.0 + 0.5*float64(ct.Inputs-2)
	case FuncAnd, FuncOr:
		base = 1.5 + 0.5*float64(ct.Inputs-2)
	case FuncXor, FuncXnor:
		base = 2.5
	case FuncMux2:
		base = 2.5
	case FuncAOI21, FuncOAI21:
		base = 1.5
	case FuncDFF:
		base = 5.0
	default:
		base = 1.0
	}
	return base * driveAreaFactor(ct.Drive)
}

// driveAreaFactor scales a base footprint by drive strength: stronger
// drives grow sublinearly (only the output stage widens).
func driveAreaFactor(drive int) float64 {
	switch drive {
	case 2:
		return 1.3
	case 4:
		return 1.8
	default:
		return 1.0
	}
}

// Library is an immutable set of cell types indexed by name.
type Library struct {
	byName map[string]*CellType
}

// Lookup returns the cell type with the given name.
func (l *Library) Lookup(name string) (*CellType, error) {
	ct, ok := l.byName[name]
	if !ok {
		return nil, fmt.Errorf("netlist: unknown cell type %q", name)
	}
	return ct, nil
}

// Variant returns the cell type with the same function and input count as ct
// but the requested drive strength.
func (l *Library) Variant(ct *CellType, drive int) (*CellType, error) {
	if (ct.Func == FuncConst0 || ct.Func == FuncConst1) && drive != 1 {
		return nil, fmt.Errorf("netlist: tie cells only come in X1, requested X%d", drive)
	}
	name := cellName(ct.Func, ct.Inputs, drive)
	v, ok := l.byName[name]
	if !ok {
		return nil, fmt.Errorf("netlist: no %s variant with drive X%d", ct.Func, drive)
	}
	return v, nil
}

func cellName(f Func, inputs, drive int) string {
	switch f {
	case FuncConst0:
		return "TIEL"
	case FuncConst1:
		return "TIEH"
	case FuncBuf, FuncInv, FuncMux2, FuncAOI21, FuncOAI21, FuncDFF:
		return fmt.Sprintf("%s_X%d", f, drive)
	default:
		return fmt.Sprintf("%s%d_X%d", f, inputs, drive)
	}
}

// drives lists the drive-strength variants generated for every cell.
var drives = []int{1, 2, 4}

// StdLib returns the built-in standard-cell library, modelled on the NanGate
// FreePDK45 Open Cell Library's logical views.
func StdLib() *Library {
	l := &Library{byName: make(map[string]*CellType, 96)}
	add := func(f Func, inputs int, driveVariants []int) {
		for _, d := range driveVariants {
			ct := &CellType{Name: cellName(f, inputs, d), Func: f, Inputs: inputs, Drive: d}
			l.byName[ct.Name] = ct
		}
	}
	add(FuncConst0, 0, []int{1})
	add(FuncConst1, 0, []int{1})
	add(FuncBuf, 1, drives)
	add(FuncInv, 1, drives)
	for _, n := range []int{2, 3, 4} {
		add(FuncAnd, n, drives)
		add(FuncOr, n, drives)
		add(FuncNand, n, drives)
		add(FuncNor, n, drives)
	}
	add(FuncXor, 2, drives)
	add(FuncXnor, 2, drives)
	add(FuncMux2, 3, drives)
	add(FuncAOI21, 3, drives)
	add(FuncOAI21, 3, drives)
	add(FuncDFF, 1, drives)
	return l
}

// EvalScalar computes the boolean output of a combinational function for the
// given input bits. It is the scalar reference semantics; the bit-parallel
// simulator must agree lane-wise (see internal/sim property tests).
// Calling it for FuncDFF is a programming error and panics.
func EvalScalar(f Func, in []bool) bool {
	switch f {
	case FuncConst0:
		return false
	case FuncConst1:
		return true
	case FuncBuf:
		return in[0]
	case FuncInv:
		return !in[0]
	case FuncAnd:
		v := true
		for _, b := range in {
			v = v && b
		}
		return v
	case FuncOr:
		v := false
		for _, b := range in {
			v = v || b
		}
		return v
	case FuncNand:
		v := true
		for _, b := range in {
			v = v && b
		}
		return !v
	case FuncNor:
		v := false
		for _, b := range in {
			v = v || b
		}
		return !v
	case FuncXor:
		v := false
		for _, b := range in {
			v = v != b
		}
		return v
	case FuncXnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		return !v
	case FuncMux2:
		if in[2] {
			return in[1]
		}
		return in[0]
	case FuncAOI21:
		return !((in[0] && in[1]) || in[2])
	case FuncOAI21:
		return !((in[0] || in[1]) && in[2])
	default:
		// Programmer error: its caller, sim.ScalarEngine, runs only Compile's combinational ops.
		panic(fmt.Sprintf("netlist: EvalScalar on non-combinational func %v", f))
	}
}
