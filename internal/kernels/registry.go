// Package kernels is the single registry of the repository's executor
// families — the kernels behind engine.Kernel — plus the size rule that
// picks one for a batch. Dispatch sites ask the registry which kernels
// can serve a workload class and ask Select which one should run.
//
// Selection is a pure function of the batch shape (class, mesh, trial
// count, host cores): no timing, no environment variable, no persisted
// state. Its thresholds are read off the committed measurements cited at
// each constant, and since every registered kernel of a class is
// bit-identical on it, the rule decides speed only, never results.
//
// The registry is deliberately data: adding a kernel means adding one
// Entry here and one runner in the caller's dispatch, and the
// differential harness (internal/kerneltest) picks it up from the same
// listing — so an executor cannot be registered without being proven
// bit-identical to the others.
package kernels

import (
	"repro/internal/core"
)

// Class is a workload class: the registry's eligibility axis. A kernel
// either serves a class exactly (bit-identical to the scalar engine on
// every input of the class) or not at all.
type Class int

const (
	// Permutation batches draw each value 1..N exactly once (mcbatch's
	// default workload).
	Permutation Class = iota
	// ZeroOne batches hold only 0s and 1s (mcbatch's Spec.ZeroOne).
	ZeroOne
)

// String returns the class identifier used in test and log output.
func (c Class) String() string {
	if c == ZeroOne {
		return "zeroone"
	}
	return "permutation"
}

// ClassOf maps mcbatch's ZeroOne flag to a Class.
func ClassOf(zeroOne bool) Class {
	if zeroOne {
		return ZeroOne
	}
	return Permutation
}

// Entry describes one registered executor family.
type Entry struct {
	// ID is the engine-level kernel selector.
	ID core.Kernel
	// Name is the wire/CLI identifier (core.KernelName(ID)).
	Name string
	// Classes lists the workload classes the kernel serves exactly.
	Classes []Class
	// Doc is a one-line description for help output and docs.
	Doc string
}

// registry lists every executor family. Order is presentation order.
var registry = []Entry{
	{core.KernelSpanSharded, "span-sharded", []Class{Permutation},
		"sharded span executor; cache-blocked row shards behind a phase barrier — for meshes that outgrow one core's cache"},
	{core.KernelSpan, "span", []Class{Permutation},
		"compiled span programs; branchless strided sweeps over the mesh"},
	{core.KernelSliced, "sliced", []Class{ZeroOne},
		"trial-sliced 0-1 kernel; 64 trials in lockstep, one bit lane each"},
	{core.KernelPacked, "packed", []Class{ZeroOne},
		"cell-packed 0-1 kernel; 64 cells of one trial per word"},
	{core.KernelGeneric, "generic", []Class{Permutation, ZeroOne},
		"scalar cellwise engine; the reference every kernel is proven against"},
	{core.KernelThreshold, "threshold", []Class{Permutation},
		"threshold-sliced permutation kernel via the 0-1 principle; exact but Θ(N/64)x the span work — the verification executor"},
}

// All returns every registered executor family.
func All() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	return out
}

// Eligible returns the entries serving class c, in registry order.
func Eligible(c Class) []Entry {
	var out []Entry
	for _, e := range registry {
		if e.serves(c) {
			out = append(out, e)
		}
	}
	return out
}

func (e Entry) serves(c Class) bool {
	for _, ec := range e.Classes {
		if ec == c {
			return true
		}
	}
	return false
}

// Supports reports whether kernel id serves class c exactly. KernelAuto
// supports nothing: it is a request to choose, not a kernel.
func Supports(id core.Kernel, c Class) bool {
	for _, e := range registry {
		if e.ID == id {
			return e.serves(c)
		}
	}
	return false
}

// Shape is everything the selection rule reads off a batch.
type Shape struct {
	Class      Class
	Rows, Cols int
	Trials     int
	// Cores is the host's CPU count; it gates the sharded span executor.
	Cores int
}

// Route is the executor assignment of one batch.
type Route struct {
	// Kernel runs the batch's leading trials, and names the batch in
	// reports: for a split 0-1 batch it is the trial-sliced kernel.
	Kernel core.Kernel
	// PackedTail is how many trailing trials run on the cell-packed
	// kernel instead. It is nonzero only for an auto-routed 0-1 batch
	// that holds at least one full 64-trial slice and a ragged tail below
	// PackedCrossover.
	PackedTail int
}

// Select maps a caller's kernel hint and a batch shape to the route that
// runs it. A hint naming a kernel of the batch's class pins that executor
// for every trial; any other hint, KernelAuto included, asks the rule:
//
//   - Permutation: the sharded span executor when AutoShards finds a
//     multi-shard split for the mesh on s.Cores, else the span kernel.
//   - ZeroOne: when PackedCrossover reaches a full slice (64 trials),
//     packed beats trial-sliced at every batch size and the whole batch
//     runs cell-packed. Otherwise every full 64-trial slice runs
//     trial-sliced; the ragged tail (Trials % 64, which is the whole
//     batch below 64 trials) runs cell-packed when it is below
//     PackedCrossover, and as one more sliced block otherwise.
func Select(hint core.Kernel, s Shape) Route {
	if hint != core.KernelAuto && Supports(hint, s.Class) {
		return Route{Kernel: hint}
	}
	if s.Class == Permutation {
		if core.AutoShards(s.Rows, s.Cols, s.Cores) > 1 {
			return Route{Kernel: core.KernelSpanSharded}
		}
		return Route{Kernel: core.KernelSpan}
	}
	c := PackedCrossover(s.Rows, s.Cols)
	tail := s.Trials % 64
	switch {
	case c >= 64:
		return Route{Kernel: core.KernelPacked}
	case tail == 0 || tail >= c:
		return Route{Kernel: core.KernelSliced}
	case tail == s.Trials:
		return Route{Kernel: core.KernelPacked}
	default:
		return Route{Kernel: core.KernelSliced, PackedTail: tail}
	}
}

// packedSide is the mesh side from which PackedCrossover reaches a full
// slice: in the DESIGN.md §10 crossover table a 64-trial batch runs
// cell-packed in 0.69× the time of one sliced slice at side 48, 0.86× at
// 64, 0.89× at 96 and 0.55× at 128 on one worker, while side 32 read
// 0.85× in one scan and 1.13× in another.
const packedSide = 43

// PackedCrossover is the trial count below which a 0-1 batch (or the
// ragged tail of one) runs faster trial by trial on the cell-packed
// kernel than as a trial-sliced block: 3s/2 for an R×C mesh of side
// s = min(⌊√(R·C)⌋, packedSide), so it reaches 64 — a full slice — from
// side 43 up. In the DESIGN.md §10 crossover table packed stops winning on
// one worker at about 2–2.5s trials (16–24 at side 8, 24–32 at 12, 32–48
// at 16, 48–64 at 24), and later on two; 3s/2 keeps packed 15–30% faster
// at the largest tail the rule sends to it.
func PackedCrossover(rows, cols int) int {
	s := 0
	for s < packedSide && (s+1)*(s+1) <= rows*cols {
		s++
	}
	return 3 * s / 2
}
