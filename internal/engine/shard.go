package engine

import (
	"runtime"
	"sync"

	"repro/internal/grid"
)

// The sharded span executor partitions the mesh into contiguous row
// blocks and runs each phase's spans shard-parallel on a persistent
// worker pool, synchronizing at a phase barrier. It exists for the
// regime the serial span kernel cannot reach: one trial whose working
// set outgrows a single core's cache, where across-trial parallelism
// (mcbatch workers) stops scaling because every worker is thrashing the
// same shared cache on its own huge grid.
//
// Sharding is a pure scheduling change, so results are bit-identical to
// the serial span kernel for every shard count:
//
//   - The comparators of one step are pairwise disjoint (a schedule
//     invariant, enforced by tests and fuzzing), so executing them in
//     any order or concurrently writes the same cells the same way. A
//     pair whose two cells straddle a shard boundary is owned by the
//     lower shard and simply writes one cell into its neighbor's rows;
//     disjointness makes that safe without coordination.
//   - Skipping is exact-conservative: a span (or sub-span) is skipped
//     only when the settled windows prove every one of its pairs a
//     no-op, so executing a different partition of the same pair set
//     skips at most different no-ops and never a live pair.
//   - Swap counts are integer sums over disjoint pair sets (order
//     independent), Comparisons adds the phase's precomputed pair
//     total, and the settled prefix/suffix advance serially at the
//     barrier — so Steps, Swaps, Comparisons, the early exit, and the
//     ErrStepLimit misplaced count all match the serial kernel exactly.
//
// The per-shard trim cursors (see span.go) live in per-shard arenas and
// are merged implicitly at the barrier: each shard trims only its own
// sub-spans against the globally settled windows published with the
// phase job, so no cursor is ever shared between shards.

const (
	// shardL2Budget is the working-set threshold below which sharding is
	// pointless: a whole int32 shadow that fits one core's L2 is better
	// served by the serial kernel than by any barrier.
	shardL2Budget = 512 << 10
	// minShardRows keeps auto-sharding from slicing the mesh thinner
	// than the barrier cost amortizes over.
	minShardRows = 32
	// maxShards bounds pool size against absurd requests.
	maxShards = 64
)

// AutoShards picks a shard count for an R×C mesh given a parallelism
// budget (how many procs intra-trial parallelism may claim). It returns
// 1 — no sharding — when the shadow fits one L2, when the budget is a
// single proc, or when the mesh is too short to give every shard
// minShardRows; otherwise it uses the budget, so every shard's row
// block is an L2-or-smaller tile walked by its own core.
func AutoShards(rows, cols, budget int) int {
	if rows*cols*4 <= shardL2Budget {
		return 1
	}
	shards := budget
	if byRows := rows / minShardRows; shards > byRows {
		shards = byRows
	}
	if shards > maxShards {
		shards = maxShards
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// shardPart is one shard's slice of one phase: the sub-spans it owns
// plus their cursor offset in the shard's arena.
type shardPart struct {
	curOff int32
	spans  []span
}

// shardedPlan is a spanPlan split into contiguous row shards. Indexing
// is phases[pi][s]; curLen[s] is shard s's total cursor-arena length.
type shardedPlan struct {
	plan   *spanPlan
	shards int
	curLen []int32
	phases [][]shardPart
}

// shardSpanPlan splits plan into `shards` contiguous row blocks of
// near-equal height (the first rows%shards blocks get the extra row). A
// pair is owned by the shard containing its base (left/top) cell, so a
// vertical pair crossing a block boundary belongs to the lower shard.
// Span base cells are strictly increasing in k (step > 0), so each
// shard owns one contiguous k-range of every span and splitting
// preserves pair order and the pair set exactly.
func shardSpanPlan(plan *spanPlan, shards int) *shardedPlan {
	cols := int32(plan.cols)
	rows := int32(plan.n / plan.cols)
	// bound[s] is the first flat cell of shard s: shard s owns cells
	// [bound[s], bound[s+1]).
	bound := make([]int32, shards+1)
	base, rem := rows/int32(shards), rows%int32(shards)
	r := int32(0)
	for s := 0; s <= shards; s++ {
		bound[s] = r * cols
		r += base
		if int32(s) < rem {
			r++
		}
	}
	sp := &shardedPlan{
		plan:   plan,
		shards: shards,
		curLen: make([]int32, shards),
		phases: make([][]shardPart, len(plan.phases)),
	}
	for pi := range plan.phases {
		parts := make([]shardPart, shards)
		for s := range parts {
			parts[s].curOff = sp.curLen[s]
		}
		for i := range plan.phases[pi].spans {
			splitSpan(&plan.phases[pi].spans[i], bound, parts)
		}
		for s := range parts {
			sp.curLen[s] += 2 * int32(len(parts[s].spans))
		}
		sp.phases[pi] = parts
	}
	return sp
}

// splitSpan appends sp's sub-spans to the shards owning them. Shard s
// owns the pairs k with bound[s] <= base + k·step < bound[s+1]. Affine
// sub-spans get exact destination-rank bounds recomputed from the pitch
// (the sub-span's own endpoints); a non-affine span — none exist today
// — inherits its parent's conservative bounds, which only makes
// whole-span skipping rarer, never wrong.
func splitSpan(sp *span, bound []int32, parts []shardPart) {
	for s := range parts {
		kA := ceilDiv32(bound[s]-sp.base, sp.step)
		kB := ceilDiv32(bound[s+1]-sp.base, sp.step)
		kA = max(kA, 0)
		kB = min(kB, sp.pairs)
		if kB <= kA {
			continue
		}
		sub := span{
			base:   sp.base + kA*sp.step,
			step:   sp.step,
			pairs:  kB - kA,
			lr0:    sp.lr0 + kA*sp.dl,
			dl:     sp.dl,
			hr0:    sp.hr0 + kA*sp.dh,
			dh:     sp.dh,
			kind:   sp.kind,
			affine: sp.affine,
		}
		if sp.affine {
			last := sub.pairs - 1
			sub.maxLoRank = max(sub.lr0, sub.lr0+last*sub.dl)
			sub.minHiRank = min(sub.hr0, sub.hr0+last*sub.dh)
		} else {
			sub.maxLoRank, sub.minHiRank = sp.maxLoRank, sp.minHiRank
		}
		parts[s].spans = append(parts[s].spans, sub)
	}
}

func ceilDiv32(a, b int32) int32 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// shardArena is one shard's private cursor storage: the pair-trim
// cursors (two per sub-span) and active-window cursors (two per phase)
// of span.go, confined to the shard so no cursor is shared.
type shardArena struct {
	cur []int32
	win []int32
}

// shardJob is one phase barrier's payload: the phase index plus the
// settled windows as of the barrier, published identically to every
// shard.
type shardJob struct {
	pi   int32
	p32  int32 // settled prefix size, in ranks
	ns32 int32 // n minus settled suffix size
}

// ShardPool is a persistent pool of shard workers plus the arenas the
// sharded span executor reuses across runs, so steady-state trials are
// allocation-free. A pool serves one run at a time (mcbatch gives each
// trial worker its own); runs may use any shard count up to Shards().
// The coordinator executes shard 0 itself, so a pool for S shards runs
// S-1 goroutines.
type ShardPool struct {
	shards int
	start  []chan shardJob
	done   chan int
	wg     sync.WaitGroup

	// Run-scoped state, written by the coordinator while the workers are
	// parked and read by them only after receiving a job: the start-
	// channel send/receive pairs (and done-channel replies) order every
	// access, so none of these need locks.
	cells   []int32
	sharded *shardedPlan
	arenas  []shardArena

	// One-entry sharded-plan memo: mcbatch reuses a pool for a whole
	// batch of identical specs, so the split is computed once.
	lastPlan    *spanPlan
	lastShards  int
	lastSharded *shardedPlan
}

// NewShardPool starts a pool able to run up to `shards` row shards
// (clamped to [1, 64]). Close must be called to release the workers.
func NewShardPool(shards int) *ShardPool {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	p := &ShardPool{
		shards: shards,
		start:  make([]chan shardJob, shards-1),
		done:   make(chan int, shards-1),
		arenas: make([]shardArena, shards),
	}
	for w := range p.start {
		p.start[w] = make(chan shardJob, 1)
		p.wg.Add(1)
		go p.worker(w, p.start[w])
	}
	return p
}

// Shards returns the pool's shard capacity.
func (p *ShardPool) Shards() int { return p.shards }

// Close stops the workers and waits for them to exit. The pool must be
// idle (no run in flight).
func (p *ShardPool) Close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.wg.Wait()
}

// worker owns shard w+1 for every run dispatched through the pool: it
// executes that shard's slice of the announced phase against the
// run-scoped shadow and reports its swap count to the barrier.
func (p *ShardPool) worker(w int, jobs <-chan shardJob) {
	defer p.wg.Done()
	for job := range jobs {
		part := &p.sharded.phases[job.pi][w+1]
		a := &p.arenas[w+1]
		p.done <- execPhaseSpans(p.cells, part.spans,
			a.cur[part.curOff:], a.win[2*job.pi:2*job.pi+2],
			job.p32, job.ns32, int32(p.sharded.plan.cols))
	}
}

// bind prepares the pool for a run of plan split `shards` ways: memoized
// sharded plan plus arenas grown (never shrunk) to fit, so repeated runs
// of one spec allocate nothing.
func (p *ShardPool) bind(plan *spanPlan, shards int) *shardedPlan {
	sharded := p.lastSharded
	if p.lastPlan != plan || p.lastShards != shards {
		sharded = shardSpanPlan(plan, shards)
		p.lastPlan, p.lastShards, p.lastSharded = plan, shards, sharded
	}
	period := len(plan.phases)
	for s := 0; s < shards; s++ {
		a := &p.arenas[s]
		if cap(a.cur) < int(sharded.curLen[s]) {
			a.cur = make([]int32, sharded.curLen[s])
		}
		a.cur = a.cur[:sharded.curLen[s]]
		if cap(a.win) < 2*period {
			a.win = make([]int32, 2*period)
		}
		a.win = a.win[:2*period]
	}
	p.sharded = sharded
	return sharded
}

// resetCursors rewinds every shard's trim and window cursors to the
// full spans, as at the start of a fresh run.
func (p *ShardPool) resetCursors(sharded *shardedPlan) {
	for pi := range sharded.phases {
		for s := 0; s < sharded.shards; s++ {
			part := &sharded.phases[pi][s]
			a := &p.arenas[s]
			a.win[2*pi] = 0
			a.win[2*pi+1] = int32(len(part.spans))
			c := part.curOff
			for j := range part.spans {
				a.cur[c+2*int32(j)] = 0
				a.cur[c+2*int32(j)+1] = part.spans[j].pairs
			}
		}
	}
}

// resolveShards turns the run's hints into an effective shard count: an
// explicit Options.Shards is honored, otherwise AutoShards decides with
// the pool's capacity (or GOMAXPROCS) as the budget; either way the
// count is clamped to the row count, the pool capacity, and maxShards.
func resolveShards(opts Options, rows, cols int) int {
	shards := opts.Shards
	if shards <= 0 {
		budget := runtime.GOMAXPROCS(0)
		if opts.ShardPool != nil {
			budget = opts.ShardPool.shards
		}
		shards = AutoShards(rows, cols, budget)
	}
	if shards > rows {
		shards = rows
	}
	if opts.ShardPool != nil && shards > opts.ShardPool.shards {
		shards = opts.ShardPool.shards
	}
	if shards > maxShards {
		shards = maxShards
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// runDistinctSpansSharded is the sharded span kernel. Structure and
// counters mirror runDistinctSpans exactly — shared shadow, shared
// execPhaseSpans inner loop, serial settled-window advancement — with
// the phase's spans pre-partitioned into row shards and dispatched to
// the pool at each step. See the package comment above for why the
// partition cannot change results.
//
//meshlint:exempt oblivious settled-window completion detection around branchless span sweeps; exactness is proven by the differential suites
func runDistinctSpansSharded(g *grid.Grid, plan *spanPlan, maxSteps int, tr *grid.DistinctTracker, shards int, pool *ShardPool) (Result, error) {
	if shards <= 1 {
		return runDistinctSpans(g, plan, maxSteps, tr)
	}
	if pool == nil {
		pool = NewShardPool(shards)
		defer pool.Close()
	} else if shards > pool.shards {
		shards = pool.shards
	}
	if shards <= 1 {
		return runDistinctSpans(g, plan, maxSteps, tr)
	}
	sharded := pool.bind(plan, shards)

	gc := g.Cells()
	_, minVal := tr.Home()
	n := plan.n
	cols := int32(plan.cols)
	rankFlat := plan.rankFlat

	if cap(pool.cells) < n {
		pool.cells = make([]int32, n)
	}
	cells := pool.cells[:n]
	pool.cells = cells
	for i, v := range gc {
		cells[i] = int32(v)
	}
	pool.resetCursors(sharded)
	writeBack := func() {
		for i, v := range cells {
			gc[i] = int(v)
		}
	}

	var res Result
	period := len(plan.phases)
	pi := 0
	p, s := 0, 0 // settled prefix / suffix sizes, in ranks
	min32 := int32(minVal)
	for p+s < n && cells[rankFlat[p]] == min32+int32(p) {
		p++
	}
	for p+s < n && cells[rankFlat[n-1-s]] == min32+int32(n-1-s) {
		s++
	}
	for t := 1; t <= maxSteps; t++ {
		ph := pi
		if pi++; pi == period {
			pi = 0
		}
		p32, ns32 := int32(p), int32(n-s)
		job := shardJob{pi: int32(ph), p32: p32, ns32: ns32}
		for w := 0; w < shards-1; w++ {
			pool.start[w] <- job
		}
		part := &sharded.phases[ph][0]
		a := &pool.arenas[0]
		swaps := execPhaseSpans(cells, part.spans,
			a.cur[part.curOff:], a.win[2*ph:2*ph+2], p32, ns32, cols)
		for w := 0; w < shards-1; w++ {
			swaps += <-pool.done
		}
		res.Swaps += int64(swaps)
		res.Comparisons += plan.phases[ph].pairs
		for p+s < n && cells[rankFlat[p]] == min32+int32(p) {
			p++
		}
		for p+s < n && cells[rankFlat[n-1-s]] == min32+int32(n-1-s) {
			s++
		}
		if p+s >= n {
			res.Steps = t
			res.Sorted = true
			writeBack()
			return res, nil
		}
	}
	misplaced := 0
	for m := p; m < n-s; m++ {
		if cells[rankFlat[m]] != min32+int32(m) {
			misplaced++
		}
	}
	writeBack()
	return res, &ErrStepLimit{Algorithm: plan.name, MaxSteps: maxSteps, Misplaced: misplaced}
}
