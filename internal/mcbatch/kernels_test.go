package mcbatch_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/kerneltest"
	"repro/internal/mcbatch"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The per-kernel agreement loops that used to accrete here — span vs
// generic, packed vs sliced vs generic, a worker-count sweep per kernel
// family — are one harness now: kerneltest.CompareBatches crosses every
// kernel hint registered for the batch's class with worker counts and
// requires byte-identical reports. This file is in the external test
// package because kerneltest imports mcbatch.
//
// Trial counts straddle the 64-trial block size (ragged lockstep tails,
// multiple blocks in flight under Workers=8) and the 0-1 routing rule's
// packed-tail crossover C: below C a batch runs packed, at C sliced, and
// 64+C-1 splits into one sliced slice plus a packed tail. The 9×8 mesh
// keeps the row-major schedules' even-column constraint while exceeding
// 64 cells (multi-chunk threshold, multi-word packing). Offsets 64 and
// 128 are the fabric's shard shape.
func TestKernelWorkerMatrix(t *testing.T) {
	c := kernels.PackedCrossover(9, 8)
	counts := []int{1, 63, 200, c - 1, c, 64, 64 + c - 1, 64 + c}
	for _, zeroOne := range []bool{false, true} {
		for _, alg := range []core.Algorithm{core.SnakeA, core.RowMajorRowFirst, core.Shearsort} {
			for _, trials := range counts {
				spec := mcbatch.Spec{
					Algorithm: alg, Rows: 9, Cols: 8, Trials: trials, Seed: 13,
					ZeroOne: zeroOne,
				}
				t.Run(fmt.Sprintf("%s-%d-zeroone=%v", alg.ShortName(), trials, zeroOne), func(t *testing.T) {
					compareRouted(t, spec, c)
				})
			}
		}
	}
	for _, offset := range []int{64, 128} {
		for _, trials := range []int{c - 1, 64 + c - 1, 128} {
			spec := mcbatch.Spec{
				Algorithm: core.SnakeA, Rows: 9, Cols: 8, Trials: trials, TrialOffset: offset,
				Seed: 13, ZeroOne: true,
			}
			t.Run(fmt.Sprintf("offset=%d-%d-zeroone=true", offset, trials), func(t *testing.T) {
				compareRouted(t, spec, c)
			})
		}
	}
}

// compareRouted runs spec through kerneltest.CompareBatches and checks
// the kernel the auto-routed batch reports: span for permutations; for
// 0-1 batches packed below the crossover c and sliced from it on, split
// batches included.
func compareRouted(t *testing.T, spec mcbatch.Spec, c int) {
	t.Helper()
	b := kerneltest.CompareBatches(t, spec, []int{1, 2, 8})
	if b == nil {
		t.Fatal("batch failed")
	}
	want := core.KernelSpan
	if spec.ZeroOne {
		want = core.KernelSliced
		if spec.Trials < c {
			want = core.KernelPacked
		}
	}
	if b.Kernel != want {
		t.Errorf("auto batch reports kernel %s, want %s", core.KernelName(b.Kernel), core.KernelName(want))
	}
}

// TestKernelWorkerMatrixStepLimit is the failure-path cross: a cap of 2
// steps fails every trial, and the reported error — the scalar engine's,
// for the smallest failing trial index — must be identical under every
// kernel hint and worker count. 64+C-1 trials split a 0-1 batch, so the
// sliced slice's error must win over the packed tail's.
func TestKernelWorkerMatrixStepLimit(t *testing.T) {
	for _, zeroOne := range []bool{false, true} {
		for _, trials := range []int{150, 64 + kernels.PackedCrossover(8, 8) - 1} {
			spec := mcbatch.Spec{
				Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: trials, Seed: 5,
				MaxSteps: 2, ZeroOne: zeroOne,
			}
			if b := kerneltest.CompareBatches(t, spec, []int{1, 2, 8}); b != nil {
				t.Fatalf("zeroone=%v trials=%d: MaxSteps=2 batch unexpectedly sorted", zeroOne, trials)
			}
		}
	}
}

// TestKernelWorkerMatrixStepLimitInTail fails only trials that the
// auto route sends to the packed tail: trials below 66 are all-zero
// grids, sorted from the start, and the rest are half-0/half-1 grids a
// 2-step cap cannot sort. Every kernel hint and worker count must report
// the error of trial 66.
func TestKernelWorkerMatrixStepLimitInTail(t *testing.T) {
	c := kernels.PackedCrossover(8, 8)
	spec := mcbatch.Spec{
		Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 64 + c - 1, Seed: 5,
		MaxSteps: 2, ZeroOne: true,
		Gen: func(src rng.Source, trial int) *grid.Grid {
			g := grid.New(8, 8)
			if trial >= 66 {
				workload.HalfZeroOneInto(src, g)
			}
			return g
		},
	}
	if route := kernels.Select(core.KernelAuto, kernels.Shape{Class: kernels.ZeroOne, Rows: 8, Cols: 8, Trials: spec.Trials}); route.PackedTail == 0 {
		t.Fatalf("route %+v has no packed tail; the test no longer covers a failure in it", route)
	}
	if b := kerneltest.CompareBatches(t, spec, []int{1, 2, 8}); b != nil {
		t.Fatal("MaxSteps=2 batch unexpectedly sorted")
	}
	_, err := mcbatch.RunCtx(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "trial 66:") {
		t.Fatalf("error %v, want the step limit of trial 66", err)
	}
}
