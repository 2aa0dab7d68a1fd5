package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/report"
)

// reference is the untimed answer to one spec, built by a different
// executor than the timed path: RunCtx with the kernel pinned to generic
// (permutations) or packed (0-1 inputs) on a single worker.
type reference struct {
	Payload []byte
	// Steps is Σ steps over the spec's trials; CellSteps multiplies it
	// by the mesh size (the paper's unit of work).
	Steps     int64
	CellSteps int64
}

// referenceSpec pins spec to the reference executor.
func referenceSpec(spec mcbatch.Spec) mcbatch.Spec {
	spec.Workers = 1
	spec.Shards = 0
	if spec.ZeroOne {
		spec.Kernel = core.KernelPacked
	} else {
		spec.Kernel = core.KernelGeneric
	}
	return spec
}

// buildReference computes spec's reference answer.
func buildReference(ctx context.Context, spec mcbatch.Spec) (reference, error) {
	key, err := spec.Hash()
	if err != nil {
		return reference{}, err
	}
	b, err := mcbatch.RunCtx(ctx, referenceSpec(spec))
	if err != nil {
		return reference{}, fmt.Errorf("reference %s %dx%d: %w", spec.Algorithm.ShortName(), spec.Rows, spec.Cols, err)
	}
	payload, err := report.BuildPayload(spec, key, b)
	if err != nil {
		return reference{}, err
	}
	var steps int64
	for _, t := range b.Trials {
		steps += int64(t.Steps)
	}
	return reference{Payload: payload, Steps: steps, CellSteps: steps * int64(spec.Rows*spec.Cols)}, nil
}

// references computes the reference of every distinct spec, two at a time
// on a 2-CPU host (each on one worker), keyed by the spec's content
// address.
func references(ctx context.Context, specs []mcbatch.Spec) (map[mcbatch.Key]reference, error) {
	var uniq []mcbatch.Spec
	keys := make(map[mcbatch.Key]bool)
	for _, s := range specs {
		k, err := s.Hash()
		if err != nil {
			return nil, err
		}
		if !keys[k] {
			keys[k] = true
			uniq = append(uniq, s)
		}
	}
	refs, err := mcbatch.MapCtx(ctx, 0, len(uniq), func(i int) (reference, error) {
		return buildReference(ctx, uniq[i])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[mcbatch.Key]reference, len(uniq))
	for i, s := range uniq {
		k, _ := s.Hash() // hashed above
		out[k] = refs[i]
	}
	return out, nil
}

// samePayload reports whether got is byte-identical to want, naming the
// first differing byte otherwise.
func samePayload(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("payload differs from the reference at byte %d (got %d bytes, want %d)", i, len(got), len(want))
}
