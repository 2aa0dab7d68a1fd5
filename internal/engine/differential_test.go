package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/kerneltest"
	"repro/internal/rng"
)

// The differential executor suite lives in internal/kerneltest now: one
// shared harness runs every registered executor — reference, sequential,
// pooled, generic, span, bit-packed, trial-sliced, threshold-sliced —
// over the full schedule × shape × workload × step-cap matrix and
// demands bit-identical Results, errors, and final grids. This file
// keeps an engine-local smoke slice of that matrix so a quick
// `go test ./internal/engine` still cross-checks the kernels it owns,
// under each sweep arm (the kerneltest package itself runs the arm the
// CPU probe picked).
func TestDifferentialSmoke(t *testing.T) {
	engine.ForEachSweepArm(t, func(t *testing.T) {
		// The larger shapes give every sweep kind whole vector groups and
		// ragged remainders, at aligned and odd starts.
		for _, shape := range [][2]int{{6, 6}, {20, 20}, {33, 33}, {9, 66}} {
			rows, cols := shape[0], shape[1]
			src := rng.New(1234)
			for _, alg := range []string{"rm-rf", "rm-cf", "snake-a", "snake-b", "snake-c", "shearsort"} {
				if cols%2 != 0 && (alg == "rm-rf" || alg == "rm-cf") {
					continue // the row-major schedules require even columns
				}
				for _, maxSteps := range []int{0, 3} {
					kerneltest.Compare(t, alg, rows, cols, maxSteps, kerneltest.Workloads(src, rows, cols))
				}
			}
		}
	})
}
