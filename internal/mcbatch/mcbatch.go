// Package mcbatch is the batched Monte-Carlo trial engine behind the
// experiment harness. Every quantitative claim reproduced from the paper
// (E[steps], variances, Chebyshev tails) is estimated by running K
// independent trials on random inputs; this package makes that trial loop
// the optimized subsystem:
//
//   - Schedules are compiled once per (algorithm, rows, cols) and shared
//     read-only across all trials (sched.Cached), so no trial pays the
//     construction cost or the per-step Step(t) interface dispatch.
//   - Trials are sharded over a pool of worker goroutines. Each trial
//     derives its own PCG stream from (master seed, trial index), so the
//     sample — and therefore every derived statistic — is bit-identical
//     under any worker count, including Workers=1.
//   - Per-trial statistics aggregate into a Welford accumulator per fixed
//     64-trial slice, merged in slice order (stats.MergeAll), so the
//     floating-point aggregate is deterministic for every worker count
//     and kernel family.
//   - Workers reuse their scratch buffers (input grid, trial slice)
//     across the trials they claim, so the steady-state trial loop
//     allocates nothing per trial for the canonical workloads.
//   - Executor selection is kernels.Select, a size rule: Spec.Kernel
//     pins a family that serves the batch's workload class; otherwise
//     permutation trials run on the engine's span kernel (sharded on big
//     meshes), and a ZeroOne batch runs its full 64-trial slices on the
//     trial-sliced kernel and a small ragged tail — the whole batch below
//     64 trials — on the cell-packed kernel, all in one worker pool.
//     Every registered kernel of a class is bit-identical on it, so the
//     choice can never change results.
package mcbatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// MapCtx runs fn(0..n-1) across a pool of `workers` goroutines (0 means
// GOMAXPROCS) and returns the results in index order. Work is handed out
// by an atomic counter, so any worker may run any index — determinism is
// the callback's job: fn must depend only on its index (the per-trial RNG
// stream discipline). If several calls fail, the error of the smallest
// index is returned, so the reported failure is also deterministic.
//
// Cancelling ctx stops the batch between indices: every worker checks the
// context before claiming the next index, so a timed-out or abandoned
// caller stops burning CPU after at most one in-flight fn call per worker.
// A cancelled batch returns ctx's error (it wins over any fn error, which
// keeps the reported failure deterministic under racing cancellation) and
// nil results.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return mapWorkers(ctx, workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) },
		nil)
}

// mapWorkers is MapCtx plus per-worker scratch state: every goroutine of
// the pool calls newState once and passes its value to each fn call it
// executes, so reusable buffers live exactly as long as a worker and are
// never shared between concurrent calls. Determinism is untouched — which
// worker (and thus which scratch) serves an index may vary, so fn must
// treat the scratch as reusable storage only, never as carried state.
// cleanup, if non-nil, runs on each worker's scratch before the worker
// exits — the release hook for scratch that owns resources (the sharded
// span kernel's goroutine pool).
func mapWorkers[S, T any](ctx context.Context, workers, n int, newState func() S, fn func(state S, i int) (T, error), cleanup func(S)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			if cleanup != nil {
				defer cleanup(state)
			}
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				out[i], errs[i] = fn(state, i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Spec describes one batch of independent sorting trials.
type Spec struct {
	// Algorithm selects the schedule.
	Algorithm core.Algorithm
	// Rows, Cols are the mesh dimensions.
	Rows, Cols int
	// Trials is the number of independent trials, K.
	Trials int
	// TrialOffset shifts the batch's trial indices: the batch runs the
	// global trials [TrialOffset, TrialOffset+Trials) of the logical
	// experiment, deriving each trial's RNG stream (and custom-Gen index)
	// from its global index. The zero value runs [0, Trials) — the whole
	// experiment — so existing Specs are unchanged. A distributed
	// coordinator (internal/fabric) splits one logical Spec into
	// contiguous sub-Specs that differ only in TrialOffset/Trials;
	// because trial i's result depends only on (Seed, Stream(i)), the
	// concatenation of the shard results in offset order is bit-identical
	// to the unsplit run. TrialOffset participates in Spec.Hash exactly
	// through the per-trial stream ids it selects (see Hash).
	TrialOffset int
	// Seed is the master seed; every trial derives its own PCG stream
	// from (Seed, Stream(trial)).
	Seed uint64
	// Stream maps a trial index to its RNG stream id. Nil uses
	// DefaultStream(Algorithm, Rows).
	Stream func(trial int) uint64
	// Gen builds the input grid of one trial from its private source.
	// Nil draws the spec's canonical workload: a uniformly random
	// permutation of 1..Rows·Cols, or — for ZeroOne batches — the paper's
	// half-0/half-1 grid (workload.HalfZeroOne). The canonical workloads
	// fill per-worker reusable buffers instead of allocating per trial.
	Gen func(src rng.Source, trial int) *grid.Grid
	// Workers is the size of the trial-level worker pool; 0 uses
	// GOMAXPROCS. Results are identical for every value.
	Workers int
	// MaxSteps caps each trial; 0 uses engine.DefaultMaxSteps.
	MaxSteps int
	// ZeroOne routes trials through the 0-1 kernels. Gen must then produce
	// grids holding only 0s and 1s (nil Gen draws half-0/half-1 grids).
	ZeroOne bool
	// Kernel selects the executor family; it is a hint that cannot change
	// results. The zero value, core.KernelAuto, lets kernels.Select route
	// the batch by its shape: span (or span-sharded) for permutation
	// batches; for ZeroOne batches, trial-sliced for the full 64-trial
	// slices and cell-packed for a ragged tail below
	// kernels.PackedCrossover. A hint naming a kernel of the batch's class
	// (permutation: generic, span, span-sharded, threshold; ZeroOne:
	// generic, packed, sliced) runs every trial on that executor; a hint
	// from the other class is treated as Auto, so the option is never an
	// error.
	Kernel core.Kernel
	// Shards is the intra-trial row-shard count for the sharded span
	// executor; it matters only when that kernel runs. 0 resolves
	// automatically under the two-level budget (see splitParallelism):
	// trial workers × shards ≤ GOMAXPROCS. An explicit positive value
	// pins the count (like Kernel, a pinned hint is honored exactly).
	// Another execution hint that can never change results — it is
	// excluded from Spec.Hash like Workers and Kernel.
	Shards int
}

// DefaultStream is the harness's seeding scheme for square-mesh step
// measurements: stream = side<<20 | algorithm<<16 | trial. It is part of
// the recorded-experiment contract (EXPERIMENTS.md tables were generated
// with it), so it must not change.
func DefaultStream(a core.Algorithm, side int) func(trial int) uint64 {
	return func(trial int) uint64 {
		return uint64(side)<<20 | uint64(a)<<16 | uint64(trial)
	}
}

// Trial is the outcome of one trial.
type Trial struct {
	Steps       int
	Swaps       int64
	Comparisons int64
}

// Batch is the outcome of a whole batch.
type Batch struct {
	// Trials holds the per-trial results in trial order.
	Trials []Trial
	// Steps aggregates the per-trial step counts: one Welford accumulator
	// per fixed 64-trial slice, merged in slice order (deterministic under
	// any worker count and kernel family).
	Steps stats.Welford
	// Kernel records the executor family the batch actually ran with —
	// the resolved hint, after kernels.Select and any downgrade (a
	// sharded request that resolves to one shard runs the serial span
	// kernel and reports it). A split 0-1 batch, whose full slices ran
	// trial-sliced and whose ragged tail ran cell-packed, reports sliced:
	// the value names the executor of the batch's first trial. Execution
	// metadata for observability; never part of a result payload.
	Kernel core.Kernel
	// Shards records the effective intra-trial shard count (1 for every
	// unsharded executor). Execution metadata like Kernel.
	Shards int
}

// StepCounts returns the per-trial step counts in trial order.
func (b *Batch) StepCounts() []int {
	out := make([]int, len(b.Trials))
	for i, t := range b.Trials {
		out[i] = t.Steps
	}
	return out
}

// RunCtx executes the batch described by spec until it completes or ctx is
// cancelled. Cancellation takes effect between trials (each worker checks
// the context before claiming another trial index), so an abandoned HTTP
// job or an expired deadline stops the pool after at most one in-flight
// trial per worker; a cancelled batch returns ctx's error.
func RunCtx(ctx context.Context, spec Spec) (*Batch, error) {
	if spec.Trials < 0 {
		return nil, fmt.Errorf("mcbatch: negative trial count %d", spec.Trials)
	}
	if spec.Rows < 1 || spec.Cols < 1 {
		return nil, fmt.Errorf("mcbatch: invalid mesh %dx%d", spec.Rows, spec.Cols)
	}
	if spec.TrialOffset < 0 {
		return nil, fmt.Errorf("mcbatch: negative trial offset %d", spec.TrialOffset)
	}
	stream := spec.Stream
	if stream == nil {
		stream = DefaultStream(spec.Algorithm, spec.Rows)
	}
	if off := spec.TrialOffset; off > 0 {
		// Shift the batch onto its global trial range. Runners keep
		// addressing trials by local index [0, Trials); only the derived
		// stream ids (and a custom Gen's trial argument, below) see the
		// global index, which is all a trial's result can depend on.
		base := stream
		stream = func(trial int) uint64 { return base(off + trial) }
	}
	seed := CanonicalSeed(spec.Seed)

	// Resolve the generator. The canonical workloads (nil Gen) fill a
	// reusable per-worker grid in place; a custom Gen keeps its
	// allocate-per-trial contract.
	gen := spec.Gen
	var genInto func(src rng.Source, g *grid.Grid)
	if gen == nil {
		if spec.ZeroOne {
			genInto = workload.HalfZeroOneInto
		} else {
			genInto = workload.RandomPermutationInto
		}
	}
	// makeInput draws trial i's grid into the worker's reusable buffer (or
	// through the custom Gen) and validates its shape.
	makeInput := func(src rng.Source, buf *grid.Grid, i int) (*grid.Grid, error) {
		if genInto != nil {
			genInto(src, buf)
			return buf, nil
		}
		g := gen(src, spec.TrialOffset+i)
		if g.Rows() != spec.Rows || g.Cols() != spec.Cols {
			return nil, fmt.Errorf("mcbatch: Gen produced a %dx%d grid for a %dx%d batch",
				g.Rows(), g.Cols(), spec.Rows, spec.Cols)
		}
		return g, nil
	}

	route := kernels.Select(spec.Kernel, kernels.Shape{
		Class: kernels.ClassOf(spec.ZeroOne),
		Rows:  spec.Rows, Cols: spec.Cols,
		Trials: spec.Trials,
		Cores:  runtime.NumCPU(),
	})
	kern := route.Kernel
	shards := 1
	if kern == core.KernelSpanSharded {
		// Resolve the two-level budget once, here, so the effective split
		// is recorded on the Batch; a request that resolves to a single
		// shard downgrades to the serial span kernel (identical results,
		// honest reporting).
		if _, s := splitParallelism(spec); s > 1 {
			shards = s
		} else {
			kern = core.KernelSpan
		}
	}
	var trials []Trial
	var err error
	switch kern {
	case core.KernelSliced:
		trials, err = runZeroOne(ctx, spec, seed, stream, makeInput, spec.Trials-route.PackedTail)
	case core.KernelPacked:
		trials, err = runZeroOne(ctx, spec, seed, stream, makeInput, 0)
	case core.KernelSpanSharded:
		trials, err = runSpanSharded(ctx, spec, seed, stream, makeInput)
	case core.KernelThreshold:
		trials, err = runThreshold(ctx, spec, seed, stream, makeInput)
	default: // span, generic
		trials, err = runEngine(ctx, spec, seed, stream, makeInput, kern)
	}
	if err != nil {
		if spec.TrialOffset > 0 {
			// Runner errors name trials by local index; anchor the shard so
			// a distributed failure is attributable to its global range.
			return nil, fmt.Errorf("mcbatch: shard [%d,%d): %w",
				spec.TrialOffset, spec.TrialOffset+spec.Trials, err)
		}
		return nil, err
	}
	b := &Batch{Trials: trials, Kernel: kern, Shards: shards}
	b.Steps = AggregateSteps(trials)
	return b, nil
}

// splitParallelism resolves the two-level parallelism budget of a batch:
// trial workers (outer level) × row shards per trial (inner level) ≤
// GOMAXPROCS. Across-trial parallelism claims procs first — it scales
// without any barrier cost — so auto-sharding only takes the procs the
// trial pool leaves idle, which happens exactly in the big-mesh,
// few-trials regime the sharded kernel exists for. An explicit
// Spec.Shards pins the inner level like a kernel hint (the engine still
// clamps it to the row count). No split can change results: every
// (workers, shards) pair is proven bit-identical by the differential
// suites, so the budget is pure scheduling policy.
func splitParallelism(spec Spec) (workers, shards int) {
	procs := runtime.GOMAXPROCS(0)
	workers = spec.Workers
	if workers <= 0 {
		workers = procs
	}
	if spec.Trials > 0 && workers > spec.Trials {
		workers = spec.Trials
	}
	if shards = spec.Shards; shards > 0 {
		return workers, shards
	}
	budget := procs / workers
	if budget < 1 {
		budget = 1
	}
	return workers, engine.AutoShards(spec.Rows, spec.Cols, budget)
}

// runEngine executes a batch one trial at a time on the scalar engine
// with an engine-level kernel hint (generic or span), reusing one input
// buffer per worker.
func runEngine(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error), kern core.Kernel) ([]Trial, error) {
	// Warm the shared compiled-schedule cache before the pool starts,
	// so workers never race to build it.
	spec.Algorithm.Schedule(spec.Rows, spec.Cols)
	name := spec.Algorithm.ShortName()
	return mapWorkers(ctx, spec.Workers, spec.Trials,
		func() *grid.Grid { return grid.New(spec.Rows, spec.Cols) },
		func(buf *grid.Grid, i int) (Trial, error) {
			src := rng.NewStream(seed, stream(i))
			g, err := makeInput(src, buf, i)
			if err != nil {
				return Trial{}, err
			}
			res, err := core.Sort(g, spec.Algorithm, core.Options{MaxSteps: spec.MaxSteps, Kernel: kern})
			if err != nil {
				return Trial{}, fmt.Errorf("%s %dx%d trial %d: %w", name, spec.Rows, spec.Cols, i, err)
			}
			return Trial{Steps: res.Steps, Swaps: res.Swaps, Comparisons: res.Comparisons}, nil
		},
		nil)
}

// shardScratch is one trial worker's reusable state for the sharded
// span kernel: the persistent shard pool (workers + arenas, reused
// across every trial the worker claims) and the input buffer.
type shardScratch struct {
	pool *engine.ShardPool
	buf  *grid.Grid
}

// runSpanSharded executes a permutation batch through the sharded span
// executor. Each trial worker owns one persistent ShardPool sized by the
// two-level budget, so steady-state trials are allocation-free; the pool
// is closed when the worker exits. Results are bit-identical to every
// other permutation runner for any (workers, shards) split.
func runSpanSharded(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error)) ([]Trial, error) {
	workers, shards := splitParallelism(spec)
	if shards <= 1 {
		return runEngine(ctx, spec, seed, stream, makeInput, core.KernelSpan)
	}
	// Warm the shared compiled-schedule cache before the pool starts.
	spec.Algorithm.Schedule(spec.Rows, spec.Cols)
	name := spec.Algorithm.ShortName()
	return mapWorkers(ctx, workers, spec.Trials,
		func() *shardScratch {
			return &shardScratch{
				pool: engine.NewShardPool(shards),
				buf:  grid.New(spec.Rows, spec.Cols),
			}
		},
		func(st *shardScratch, i int) (Trial, error) {
			src := rng.NewStream(seed, stream(i))
			g, err := makeInput(src, st.buf, i)
			if err != nil {
				return Trial{}, err
			}
			res, err := core.Sort(g, spec.Algorithm, core.Options{
				MaxSteps:  spec.MaxSteps,
				Kernel:    core.KernelSpanSharded,
				Shards:    shards,
				ShardPool: st.pool,
			})
			if err != nil {
				return Trial{}, fmt.Errorf("%s %dx%d trial %d: %w", name, spec.Rows, spec.Cols, i, err)
			}
			return Trial{Steps: res.Steps, Swaps: res.Swaps, Comparisons: res.Comparisons}, nil
		},
		func(st *shardScratch) { st.pool.Close() })
}

// thresholdScratch is one worker's reusable state for the
// threshold-sliced permutation kernel.
type thresholdScratch struct {
	sc  *zeroone.ThresholdScratch
	buf *grid.Grid
}

// runThreshold executes a permutation batch through the threshold-sliced
// kernel: each trial's 0-1 threshold projections run in lockstep, 64 per
// word, and the trial's Result is reassembled from the slices. A custom
// Gen may produce non-permutation grids the decomposition cannot serve;
// those trials fall back to the scalar engine, keeping the kernel hint's
// never-an-error contract.
func runThreshold(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error)) ([]Trial, error) {
	name := spec.Algorithm.ShortName()
	ss, err := zeroone.CachedSliced(name, spec.Rows, spec.Cols)
	if err != nil {
		return nil, err
	}
	// Warm the scalar schedule cache too: the fallback path may need it.
	spec.Algorithm.Schedule(spec.Rows, spec.Cols)
	return mapWorkers(ctx, spec.Workers, spec.Trials,
		func() *thresholdScratch {
			return &thresholdScratch{
				sc:  zeroone.NewThresholdScratch(spec.Rows, spec.Cols),
				buf: grid.New(spec.Rows, spec.Cols),
			}
		},
		func(st *thresholdScratch, i int) (Trial, error) {
			src := rng.NewStream(seed, stream(i))
			g, err := makeInput(src, st.buf, i)
			if err != nil {
				return Trial{}, err
			}
			res, err := zeroone.SortThresholds(g, ss, spec.MaxSteps, st.sc)
			if errors.Is(err, zeroone.ErrNotPermutation) {
				res, err = core.Sort(g, spec.Algorithm, core.Options{MaxSteps: spec.MaxSteps})
			}
			if err != nil {
				return Trial{}, fmt.Errorf("%s %dx%d trial %d: %w", name, spec.Rows, spec.Cols, i, err)
			}
			return Trial{Steps: res.Steps, Swaps: res.Swaps, Comparisons: res.Comparisons}, nil
		},
		nil)
}

// zeroOneScratch is one worker's reusable state for the 0-1 kernels:
// the grid the generator fills and, once the worker claims a sliced
// block, the 64-lane slice buffer.
type zeroOneScratch struct {
	ts  *zeroone.TrialSlice
	buf *grid.Grid
}

// runZeroOne executes a ZeroOne batch with trials [0, sliced) on the
// trial-sliced kernel and trials [sliced, Trials) on the cell-packed
// kernel, in one worker pool. The work units are the sliced blocks of 64
// trials (the last one ragged when sliced % 64 != 0), then the packed
// trials one by one, so a batch of one full slice and a small tail keeps
// every worker busy. Units are ordered by trial index and each covers a
// contiguous range, so the error reported on failure — the one of the
// smallest failing unit — is the one of the smallest failing trial, as
// on the per-trial paths; results are identical for every split.
func runZeroOne(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error), sliced int) ([]Trial, error) {
	name := spec.Algorithm.ShortName()
	var (
		ss  *zeroone.SlicedSchedule
		ps  *zeroone.PackedSchedule
		err error
	)
	if sliced > 0 {
		if ss, err = zeroone.CachedSliced(name, spec.Rows, spec.Cols); err != nil {
			return nil, err
		}
	}
	if sliced < spec.Trials {
		if ps, err = zeroone.CachedPacked(name, spec.Rows, spec.Cols); err != nil {
			return nil, err
		}
	}
	trialErr := func(i int, err error) error {
		return fmt.Errorf("%s %dx%d trial %d: %w", name, spec.Rows, spec.Cols, i, err)
	}
	blocks := (sliced + 63) / 64
	trials := make([]Trial, spec.Trials)
	_, err = mapWorkers(ctx, spec.Workers, blocks+spec.Trials-sliced,
		func() *zeroOneScratch { return &zeroOneScratch{buf: grid.New(spec.Rows, spec.Cols)} },
		func(sc *zeroOneScratch, u int) (struct{}, error) {
			if u >= blocks {
				i := sliced + u - blocks
				g, err := makeInput(rng.NewStream(seed, stream(i)), sc.buf, i)
				if err != nil {
					return struct{}{}, err
				}
				res, err := zeroone.SortPacked(g, ps, spec.MaxSteps)
				if err != nil {
					return struct{}{}, trialErr(i, err)
				}
				trials[i] = Trial{Steps: res.Steps, Swaps: res.Swaps, Comparisons: res.Comparisons}
				return struct{}{}, nil
			}
			if sc.ts == nil {
				sc.ts = zeroone.NewTrialSlice(spec.Rows, spec.Cols)
			}
			lo := u * 64
			hi := min(lo+64, sliced)
			sc.ts.Reset()
			for i := lo; i < hi; i++ {
				g, err := makeInput(rng.NewStream(seed, stream(i)), sc.buf, i)
				if err != nil {
					return struct{}{}, err
				}
				sc.ts.AddGrid(g)
			}
			results, errs, err := zeroone.SortSliced(sc.ts, ss, spec.MaxSteps)
			if err != nil {
				return struct{}{}, err
			}
			for k := 0; k < hi-lo; k++ {
				if errs != nil && errs[k] != nil {
					return struct{}{}, trialErr(lo+k, errs[k])
				}
				trials[lo+k] = Trial{Steps: results[k].Steps, Swaps: results[k].Swaps, Comparisons: results[k].Comparisons}
			}
			return struct{}{}, nil
		},
		nil)
	if err != nil {
		return nil, err
	}
	return trials, nil
}

// SliceWelfords folds the per-trial step counts into one Welford
// accumulator per fixed 64-trial slice, in slice order. The partition
// depends only on trial indices — never on the worker count or kernel
// family — so the slice list is bit-identical for every execution
// strategy. These partials are the unit of distributed aggregation: a
// fabric shard whose trial range is 64-aligned produces exactly the
// slices of its range, so concatenating shard partials in offset order
// reconstructs the unsplit slice list (pinned by the stats merge golden
// test and docs/INVARIANTS.md "Placement independence").
func SliceWelfords(trials []Trial) []stats.Welford {
	parts := make([]stats.Welford, 0, (len(trials)+63)/64)
	for lo := 0; lo < len(trials); lo += 64 {
		hi := min(lo+64, len(trials))
		var w stats.Welford
		for _, t := range trials[lo:hi] {
			w.AddInt(t.Steps)
		}
		parts = append(parts, w)
	}
	return parts
}

// AggregateSteps merges the per-slice partials of SliceWelfords in slice
// order. The fold order is fixed, so the floating-point aggregate is
// deterministic for every execution strategy — including a distributed
// run that concatenates 64-aligned shard partials before this one fold —
// which is what keeps the daemon's content-addressed result payloads
// byte-stable.
func AggregateSteps(trials []Trial) stats.Welford {
	return stats.MergeAll(SliceWelfords(trials))
}
