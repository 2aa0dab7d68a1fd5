#include "textflag.h"

// AVX2 forms of the span kernel's four sweep kinds (see sweep_amd64.go).
// Each loop keeps per-lane exchange counts in Y6 (a compare mask is -1
// per exchanging lane, so subtracting it counts) and folds them into one
// integer on exit. Loads and stores are unaligned. Y7 holds the even-lane
// mask: -1 in lanes 0, 2, 4, 6 and 0 in the odd lanes.

#define EVEN_MASK \
	VPCMPEQD Y7, Y7, Y7 \
	VPSRLQ   $32, Y7, Y7

// LANE_SUM folds the eight int32 lane counts of Y6 into AX.
#define LANE_SUM \
	VEXTRACTI128 $1, Y6, X0 \
	VPADDD       X0, X6, X6 \
	VPSHUFD      $0x4E, X6, X0 \
	VPADDD       X0, X6, X6 \
	VPSHUFD      $0xB1, X6, X0 \
	VPADDD       X0, X6, X6 \
	VMOVD        X6, AX

// func hFwdAVX2(w []int32) int
// Forward horizontal pairs (w[2k], w[2k+1]), smaller value left, four
// pairs per YMM. len(w) must be a multiple of 8.
TEXT ·hFwdAVX2(SB), NOSPLIT, $0-32
	MOVQ  w_base+0(FP), SI
	MOVQ  w_len+8(FP), CX
	SHRQ  $3, CX
	VPXOR Y6, Y6, Y6
	EVEN_MASK
	TESTQ CX, CX
	JZ    hfwd_done

hfwd_loop:
	VMOVDQU  (SI), Y0
	VPSHUFD  $0xB1, Y0, Y1 // partner of every lane
	VPMINSD  Y1, Y0, Y2
	VPMAXSD  Y1, Y0, Y3
	VPBLENDD $0xAA, Y3, Y2, Y4 // min in even lanes, max in odd
	VPCMPGTD Y1, Y0, Y5        // even lanes: left > right
	VPAND    Y7, Y5, Y5
	VPSUBD   Y5, Y6, Y6
	VMOVDQU  Y4, (SI)
	ADDQ     $32, SI
	DECQ     CX
	JNZ      hfwd_loop

hfwd_done:
	LANE_SUM
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func hRevAVX2(w []int32) int
// Reverse horizontal pairs: larger value left, an exchange when the
// right cell held the larger value. len(w) must be a multiple of 8.
TEXT ·hRevAVX2(SB), NOSPLIT, $0-32
	MOVQ  w_base+0(FP), SI
	MOVQ  w_len+8(FP), CX
	SHRQ  $3, CX
	VPXOR Y6, Y6, Y6
	EVEN_MASK
	TESTQ CX, CX
	JZ    hrev_done

hrev_loop:
	VMOVDQU  (SI), Y0
	VPSHUFD  $0xB1, Y0, Y1
	VPMINSD  Y1, Y0, Y2
	VPMAXSD  Y1, Y0, Y3
	VPBLENDD $0xAA, Y2, Y3, Y4 // max in even lanes, min in odd
	VPCMPGTD Y0, Y1, Y5        // even lanes: right > left
	VPAND    Y7, Y5, Y5
	VPSUBD   Y5, Y6, Y6
	VMOVDQU  Y4, (SI)
	ADDQ     $32, SI
	DECQ     CX
	JNZ      hrev_loop

hrev_done:
	LANE_SUM
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func v1AVX2(t, b []int32) int
// Stride-1 vertical pairs (t[k], b[k]), smaller value to t, eight pairs
// per YMM pair. len(t) must be a multiple of 8 and len(b) >= len(t).
TEXT ·v1AVX2(SB), NOSPLIT, $0-56
	MOVQ  t_base+0(FP), SI
	MOVQ  t_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	SHRQ  $3, CX
	VPXOR Y6, Y6, Y6
	TESTQ CX, CX
	JZ    v1_done

v1_loop:
	VMOVDQU  (SI), Y0
	VMOVDQU  (DI), Y1
	VPMINSD  Y1, Y0, Y2
	VPMAXSD  Y1, Y0, Y3
	VPCMPGTD Y1, Y0, Y5 // top > bottom
	VPSUBD   Y5, Y6, Y6
	VMOVDQU  Y2, (SI)
	VMOVDQU  Y3, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	DECQ     CX
	JNZ      v1_loop

v1_done:
	LANE_SUM
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func v2AVX2(t, b []int32) int
// Stride-2 vertical pairs (t[2k], b[2k]), smaller value to t, four pairs
// per YMM. The odd lanes belong to other pairs (possibly another shard's),
// so loads and stores are masked to the even lanes and never touch them;
// masked-off lanes also never fault, so the last group may reach one cell
// past the slices. len(t)+1 must be a multiple of 8 and len(b) >= len(t).
TEXT ·v2AVX2(SB), NOSPLIT, $0-56
	MOVQ  t_base+0(FP), SI
	MOVQ  t_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	INCQ  CX
	SHRQ  $3, CX
	VPXOR Y6, Y6, Y6
	EVEN_MASK
	TESTQ CX, CX
	JZ    v2_done

v2_loop:
	VPMASKMOVD (SI), Y7, Y0 // odd lanes read as 0
	VPMASKMOVD (DI), Y7, Y1
	VPMINSD    Y1, Y0, Y2
	VPMAXSD    Y1, Y0, Y3
	VPCMPGTD   Y1, Y0, Y5 // 0 in the odd lanes: 0 > 0 is false
	VPSUBD     Y5, Y6, Y6
	VPMASKMOVD Y2, Y7, (SI)
	VPMASKMOVD Y3, Y7, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        v2_loop

v2_done:
	LANE_SUM
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() (lo, hi uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET
