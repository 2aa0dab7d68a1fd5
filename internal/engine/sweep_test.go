package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// forEachArm runs f once per sweep arm this host can execute: "avx2"
// (when the CPU probe found it) and "scalar", with useAVX2 set for the
// duration and restored afterwards. The flag is package state, so f and
// its callers must not run in parallel with other tests.
func forEachArm(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, on := range []bool{true, false} {
		if on && !cpuHasAVX2() {
			continue
		}
		name := "scalar"
		if on {
			name = "avx2"
		}
		useAVX2 = on
		t.Run(name, f)
	}
}

// Sweep kinds for the arm differential; kindVN is exercised at stride 2,
// the only stride with a vector form.
var sweepKindNames = [...]string{kindHFwd: "hfwd", kindHRev: "hrev", kindV1: "v1", kindVN: "v2"}

// sweepCells returns the flat cells of pair k of a span of the given
// kind: the compared cell and its partner.
func sweepCells(kind int, start, k, cols int) (int, int) {
	switch kind {
	case kindHFwd, kindHRev:
		return start + 2*k, start + 2*k + 1
	case kindV1:
		return start + k, start + k + cols
	default:
		return start + 2*k, start + 2*k + cols
	}
}

// runSweep applies one span sweep of the given kind with the current arm.
func runSweep(cells []int32, kind int, start, pairs, cols int) int {
	s, p, c := int32(start), int32(pairs), int32(cols)
	switch kind {
	case kindHFwd:
		return execHSpanFwd(cells, s, p)
	case kindHRev:
		return execHSpanRev(cells, s, p)
	case kindV1:
		return execVSpan1(cells, s, p, c)
	default:
		return execVSpanN(cells, s, 2, p, c)
	}
}

// sweepValue draws a cell value: half the time one of the int32 extremes
// or small values (so ties and sign boundaries are common), otherwise any
// int32.
func sweepValue(src *rng.PCG64) int32 {
	edges := [...]int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	x := src.Uint64()
	if x&1 == 0 {
		return edges[(x>>1)%uint64(len(edges))]
	}
	return int32(uint32(x >> 32))
}

// checkSweepArms compares the AVX2 and scalar forms of one span sweep on
// the same random buffer: final cells and swap counts must be equal, and
// every cell outside the span's pairs must come back unchanged. In the
// stride-2 sweep the cells between pairs (the masked-off lanes) are set
// to values that would exchange if a sweep touched them. Spans whose
// pairs overlap are not schedule steps and are skipped.
func checkSweepArms(t *testing.T, kind, start, pairs, cols int, seed uint64) {
	t.Helper()
	// The buffer reaches past the last pair's partner (pair 0's when the
	// span is empty, so the sweeps' slicing stays in range) by guard cells.
	_, last := sweepCells(kind, start, max(pairs-1, 0), cols)
	n := last + 17
	inSpan := make([]bool, n)
	for k := 0; k < pairs; k++ {
		a, b := sweepCells(kind, start, k, cols)
		if inSpan[a] || inSpan[b] {
			return // not a matching
		}
		inSpan[a], inSpan[b] = true, true
	}
	src := rng.New(seed)
	orig := make([]int32, n)
	for i := range orig {
		orig[i] = sweepValue(src)
	}
	if kind == kindVN {
		for k := 0; k < pairs; k++ {
			a, b := sweepCells(kind, start, k, cols)
			if !inSpan[a+1] && !inSpan[b+1] {
				orig[a+1], orig[b+1] = math.MaxInt32, math.MinInt32
			}
		}
	}

	saved := useAVX2
	defer func() { useAVX2 = saved }()
	run := func(on bool) ([]int32, int) {
		useAVX2 = on
		cells := append([]int32(nil), orig...)
		return cells, runSweep(cells, kind, start, pairs, cols)
	}
	want, wantSwaps := run(false)
	got, gotSwaps := run(true)
	where := fmt.Sprintf("%s start=%d pairs=%d cols=%d seed=%d", sweepKindNames[kind], start, pairs, cols, seed)
	if gotSwaps != wantSwaps {
		t.Fatalf("%s: avx2 swaps %d, scalar %d", where, gotSwaps, wantSwaps)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d avx2 %d, scalar %d", where, i, got[i], want[i])
		}
		if !inSpan[i] && got[i] != orig[i] {
			t.Fatalf("%s: cell %d outside the span changed %d -> %d", where, i, orig[i], got[i])
		}
	}
}

// TestSweepArmsAgree holds every vector sweep to its scalar definition
// across start offsets (aligned and not), pair counts around the group
// widths, and partner distances that do and do not interleave with the
// pairs.
func TestSweepArmsAgree(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this CPU: the scalar sweeps are the only arm")
	}
	seed := uint64(1)
	for kind := range sweepKindNames {
		colSet := []int{2, 3, 4, 5, 8, 33, 72}
		if kind == kindHFwd || kind == kindHRev {
			colSet = colSet[:1] // horizontal sweeps ignore cols
		}
		for _, cols := range colSet {
			for start := 0; start < 16; start++ {
				for pairs := 0; pairs <= 67; pairs++ {
					checkSweepArms(t, kind, start, pairs, cols, seed)
					seed++
				}
			}
		}
	}
}

// FuzzSweepArms explores the same differential over fuzzer-chosen spans.
//
// Run with: go test -fuzz=FuzzSweepArms ./internal/engine/
func FuzzSweepArms(f *testing.F) {
	if !cpuHasAVX2() {
		f.Skip("no AVX2 on this CPU: the scalar sweeps are the only arm")
	}
	f.Add(uint8(kindHFwd), uint8(1), uint8(9), uint8(2), uint64(1))
	f.Add(uint8(kindHRev), uint8(0), uint8(64), uint8(2), uint64(2))
	f.Add(uint8(kindV1), uint8(3), uint8(17), uint8(40), uint64(3))
	f.Add(uint8(kindVN), uint8(7), uint8(13), uint8(33), uint64(4))
	f.Fuzz(func(t *testing.T, kind, start, pairs, cols uint8, seed uint64) {
		checkSweepArms(t, int(kind)%len(sweepKindNames), int(start)%32, int(pairs), 1+int(cols), seed)
	})
}
