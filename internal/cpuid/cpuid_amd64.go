package cpuid

// AVX reports whether the CPU has AVX and the operating system saves the
// YMM registers (CPUID.1:ECX.OSXSAVE and .AVX, XCR0 bits 1 and 2).
func AVX() bool
