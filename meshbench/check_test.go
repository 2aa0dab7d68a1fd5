package main

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/report"
)

func TestReferenceCheckFailsOnAFlippedByte(t *testing.T) {
	ctx := context.Background()
	for _, zeroOne := range []bool{false, true} {
		spec := mcbatch.Spec{Algorithm: core.SnakeB, Rows: 8, Cols: 8, Trials: 70, Seed: 9, ZeroOne: zeroOne}
		ref, err := buildReference(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		// The timed path's executor (span or sliced, two workers) must
		// agree with the reference byte for byte.
		b, err := mcbatch.RunCtx(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := spec.Hash()
		got, err := report.BuildPayload(spec, key, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePayload(got, ref.Payload); err != nil {
			t.Fatalf("zeroone=%v: %v", zeroOne, err)
		}
		if ref.Steps <= 0 || ref.CellSteps != ref.Steps*64 {
			t.Errorf("steps %d, cell-steps %d", ref.Steps, ref.CellSteps)
		}
		for _, i := range []int{0, len(got) / 2, len(got) - 1} {
			flipped := append([]byte(nil), got...)
			flipped[i] ^= 1
			if samePayload(flipped, ref.Payload) == nil {
				t.Errorf("zeroone=%v: flipping byte %d passed the check", zeroOne, i)
			}
		}
		if samePayload(got[:len(got)-1], ref.Payload) == nil {
			t.Errorf("zeroone=%v: a truncated payload passed the check", zeroOne)
		}
	}
}

func TestReferenceSpecPinsAnotherExecutor(t *testing.T) {
	perm := referenceSpec(mcbatch.Spec{Workers: 4})
	zo := referenceSpec(mcbatch.Spec{ZeroOne: true})
	if perm.Kernel != core.KernelGeneric || perm.Workers != 1 || zo.Kernel != core.KernelPacked || zo.Workers != 1 {
		t.Errorf("reference specs %+v, %+v", perm, zo)
	}
}
