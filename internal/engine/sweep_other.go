//go:build !amd64

package engine

// Without the amd64 vector arm every sweep takes its scalar loop; these
// stubs only satisfy the calls the amd64 build routes to assembly.

var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool { return false }

//meshlint:hot
func hFwdAVX2(w []int32) int { panic("engine: AVX2 sweep on a non-amd64 build") }

//meshlint:hot
func hRevAVX2(w []int32) int { panic("engine: AVX2 sweep on a non-amd64 build") }

//meshlint:hot
func v1AVX2(t, b []int32) int { panic("engine: AVX2 sweep on a non-amd64 build") }

//meshlint:hot
func v2AVX2(t, b []int32) int { panic("engine: AVX2 sweep on a non-amd64 build") }
