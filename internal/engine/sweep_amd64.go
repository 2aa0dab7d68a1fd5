package engine

// useAVX2 routes the span sweeps through their AVX2 forms
// (sweep_amd64.s). It is set once, from the CPU probe, and never changes
// outside the arm-toggling test helper.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM register state across context switches: CPUID.1:ECX OSXSAVE
// and AVX, XCR0's XMM and YMM bits, and CPUID.(7,0):EBX AVX2.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// hFwdAVX2 is the vector forward horizontal sweep over len(w)/8 groups
// of four pairs; len(w) must be a multiple of 8.
//
//go:noescape
//meshlint:hot
func hFwdAVX2(w []int32) int

// hRevAVX2 is the vector reverse horizontal sweep; len(w) must be a
// multiple of 8.
//
//go:noescape
//meshlint:hot
func hRevAVX2(w []int32) int

// v1AVX2 is the vector stride-1 vertical sweep of t against b, eight
// pairs per group; len(t) must be a multiple of 8.
//
//go:noescape
//meshlint:hot
func v1AVX2(t, b []int32) int

// v2AVX2 is the vector stride-2 vertical sweep: pairs (t[2k], b[2k]),
// four per group, with the odd lanes masked off; len(t)+1 must be a
// multiple of 8.
//
//go:noescape
//meshlint:hot
func v2AVX2(t, b []int32) int

//go:noescape
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

//go:noescape
func xgetbv0() (lo, hi uint32)
