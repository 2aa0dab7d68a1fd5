// Microbenchmarks pitting the span kernel against the generic comparator
// path on identical permutation trials, for each of the paper's five
// algorithms at sides 32, 64 and 128. These isolate engine.Run (the
// cmd/benchbatch kernel suite additionally measures the historical
// per-trial loop and multi-worker scaling); run with a high -benchtime
// and -count and compare minima — shared hosts are noisy. ns/cellstep is
// the time per trial divided by N·steps, the paper's unit.
//
//	go test -run '^$' -bench 'Kernel' -count 5 ./internal/engine/
package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func benchKernel(b *testing.B, alg string, side int, k engine.Kernel) {
	s, err := sched.Cached(alg, side, side)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(7)
	var cellSteps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := workload.RandomPermutation(src, side, side)
		b.StartTimer()
		res, err := engine.Run(g, s, engine.Options{Kernel: k})
		if err != nil {
			b.Fatal(err)
		}
		cellSteps += float64(side*side) * float64(res.Steps)
	}
	if cellSteps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cellSteps, "ns/cellstep")
	}
}

// paperAlgorithms are the five algorithms the paper analyses.
var paperAlgorithms = []string{"rm-rf", "rm-cf", "snake-a", "snake-b", "snake-c"}

func BenchmarkKernelSpan(b *testing.B) {
	for _, alg := range paperAlgorithms {
		for _, side := range []int{32, 64, 128} {
			b.Run(fmt.Sprintf("%s/%d", alg, side), func(b *testing.B) {
				benchKernel(b, alg, side, engine.KernelSpan)
			})
		}
	}
}

func BenchmarkKernelGeneric(b *testing.B) {
	for _, alg := range paperAlgorithms {
		for _, side := range []int{32, 64} {
			b.Run(fmt.Sprintf("%s/%d", alg, side), func(b *testing.B) {
				benchKernel(b, alg, side, engine.KernelGeneric)
			})
		}
	}
}
