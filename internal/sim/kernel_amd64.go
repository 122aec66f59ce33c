package sim

import "repro/internal/cpuid"

// evalAVX is Eval's pass with a YMM register per 256-lane row. VANDPS, VORPS,
// VXORPS and VANDNPS round nothing, so its rows are evalGo's on every CPU. It
// runs up to a kHalt and trusts every slot (BuildKernel's checkSlots).
//
//go:noescape
func evalAVX(regs []krow, code []kinstr)

// avxEval runs evalAVX over code and the kHalt BuildKernel leaves past its
// end: code without room for one panics here. With AVX, it goes first.
func avxEval(regs []krow, code []kinstr) { evalAVX(regs, code[:len(code)+1]) }

func init() {
	if cpuid.AVX() {
		platformEvals = append([]kernelEval{{"avx", avxEval}}, platformEvals...)
	}
}
