package engine

import (
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/sched"
)

// Kernel selects which executor family Run uses on its Monte-Carlo fast
// path (permutation trial, no observer, no injected tracker, no worker
// pool). The kernels are proven bit-identical — same final grid, Steps,
// Swaps, and Comparisons — by the differential suites; the knob exists so
// benchmarks can hold one fixed and callers can pin a path if they ever
// need to.
type Kernel int

const (
	// KernelAuto picks the span kernel whenever the schedule compiles into
	// spans and the span plan is monotone, falling back to the comparator
	// path otherwise. This is the default.
	KernelAuto Kernel = iota
	// KernelGeneric forces the comparator-slice path (the pre-span
	// engine), which is also what non-permutation inputs always use.
	KernelGeneric
	// KernelSpan requests the span kernel. Runs that are not eligible for
	// any fast path (observers, custom trackers, duplicate values) or
	// whose schedule does not compile into spans silently fall back to the
	// generic path, so the option is a hint, never an error.
	KernelSpan
	// KernelPacked requests the cell-packed 0-1 kernel (64 cells of one
	// trial per word). Only mcbatch's ZeroOne batches honor it; the engine
	// itself treats it like KernelAuto, keeping the hint-never-error
	// semantics for runs the packed kernel cannot serve.
	KernelPacked
	// KernelSliced requests the trial-sliced 0-1 kernel (64 trials of one
	// cell per word), mcbatch's default for ZeroOne batches. Like
	// KernelPacked it is a batch-level hint: the engine treats it as
	// KernelAuto.
	KernelSliced
	// KernelThreshold requests the threshold-sliced permutation kernel
	// (zeroone.SortThresholds): every 0-1 threshold projection of a
	// permutation trial runs through the trial-sliced machinery, 64
	// projections per word, and the permutation's Result is reassembled
	// from the slices. Only mcbatch's permutation batches honor it; the
	// engine itself treats it like KernelAuto.
	KernelThreshold
	// KernelSpanSharded requests the sharded span executor: the span
	// kernel's phases partitioned into contiguous row blocks executed
	// shard-parallel on a persistent pool with a phase barrier (see
	// shard.go). Eligibility matches KernelSpan; runs that resolve to a
	// single shard (small meshes, one-row grids, no parallelism budget)
	// take the serial span path, keeping the hint-never-error semantics.
	KernelSpanSharded
)

// Span exec kinds. Forward/reverse horizontal sweeps differ in which cell
// receives the minimum; vertical sweeps with stride 1 get a dedicated
// two-slice streaming loop.
const (
	kindHFwd = iota
	kindHRev
	kindV1
	kindVN
)

// span is one compiled span annotated for settled-window skipping. Pair k
// occupies cells base+k·step (left/top) and its partner one cell (H) or
// one row (V) away. maxLoRank/minHiRank bound the pairs' destination
// ranks: the whole span is a guaranteed no-op once the settled prefix
// covers every min-destination rank (maxLoRank < p) or the settled suffix
// covers every max-destination rank (minHiRank >= n-s).
//
// For every schedule in the repertoire the destination ranks are affine
// along the span — pair k's min destination is lr0 + k·dl and its max
// destination hr0 + k·dh (rows and columns occupy consecutive ranks in
// each target order, so walking a span walks ranks at a fixed pitch).
// When that holds the kernel trims settled pairs off the span's ends
// with permanent per-run cursors, mirroring runDistinctLazy's comparator
// cursors: the settled windows only grow, so a trimmed pair stays
// trimmed and cursor advancement is amortized O(1) over the run. (An
// earlier design recomputed the active window per span per step; the
// recomputation cost more than the pairs it saved. Advance-only cursors
// keep the per-visit cost at a couple of compares.) A non-affine span —
// none exist today — falls back to whole-span skipping only.
type span struct {
	base      int32 // flat index of pair 0's left/top cell
	step      int32 // flat distance between consecutive pairs' base cells
	pairs     int32
	maxLoRank int32
	minHiRank int32
	lr0, dl   int32 // pair k's min-destination rank: lr0 + k·dl
	hr0, dh   int32 // pair k's max-destination rank: hr0 + k·dh
	kind      int8
	affine    bool
}

// spanPhase is one schedule step compiled into spans, plus the step's
// total comparator count (trimmed pairs still count as comparisons) and
// the phase's offset into the per-run cursor array (two cursors per
// span).
type spanPhase struct {
	pairs  int64
	curOff int
	spans  []span
}

// spanPlan is the engine-level compilation of a schedule for the span
// kernel: the span program of the schedule, the rank layout of its target
// order, and per-span skip bounds. A plan only exists for monotone
// schedules (every comparator sends the smaller value to the strictly
// lower target rank), which is what makes the settled-window argument of
// runDistinctLazy carry over unchanged.
type spanPlan struct {
	name     string
	n, cols  int
	curLen   int     // total cursor slots: two per span across all phases
	rankFlat []int32 // rankFlat[m] = flat cell of target rank m
	phases   []spanPhase
}

// spanPlans caches plans for shared compiled schedules; a nil entry
// records "no span plan" (unclassifiable or non-monotone) so ineligible
// schedules are not re-examined on every run. Ad-hoc schedule values get
// a fresh plan per run, mirroring lazyPlans.
var spanPlans sync.Map // *sched.Compiled -> *spanPlan (nil = ineligible)

func spanPlanFor(s sched.Schedule, g *grid.Grid) *spanPlan {
	c, shared := s.(*sched.Compiled)
	if shared {
		if v, ok := spanPlans.Load(c); ok {
			return v.(*spanPlan)
		}
	}
	plan := buildSpanPlan(s, g)
	if shared {
		v, _ := spanPlans.LoadOrStore(c, plan)
		return v.(*spanPlan)
	}
	return plan
}

// buildSpanPlan compiles s for the span kernel, returning nil when the
// schedule has no span form or violates monotonicity.
func buildSpanPlan(s sched.Schedule, g *grid.Grid) *spanPlan {
	var prog *sched.SpanProgram
	var ok bool
	if c, isCompiled := s.(*sched.Compiled); isCompiled {
		prog, ok = sched.CachedSpans(c)
	} else {
		prog, ok = sched.CompileSpans(s)
	}
	if !ok {
		return nil
	}
	n := g.Len()
	cols := g.Cols()
	order := s.Order()
	plan := &spanPlan{name: s.Name(), n: n, cols: cols, rankFlat: make([]int32, n)}
	rank := make([]int32, n) // rank[flat] = target rank of flat cell
	for m := 0; m < n; m++ {
		f := g.RankFlat(order, m)
		plan.rankFlat[m] = int32(f)
		rank[f] = int32(m)
	}
	plan.phases = make([]spanPhase, prog.Period())
	for t := 1; t <= prog.Period(); t++ {
		sp := prog.Spans(t)
		ph := &plan.phases[t-1]
		ph.pairs = int64(sp.Pairs)
		ph.curOff = plan.curLen
		plan.curLen += 2 * (len(sp.H) + len(sp.V))
		ph.spans = make([]span, 0, len(sp.H)+len(sp.V))
		for _, h := range sp.H {
			s := span{base: h.Start, step: 2, pairs: h.Pairs, kind: kindHFwd}
			loOff, hiOff := int32(0), int32(1)
			if h.Rev {
				loOff, hiOff = 1, 0
				s.kind = kindHRev
			}
			if !finishSpan(&s, rank, loOff, hiOff) {
				return nil
			}
			ph.spans = append(ph.spans, s)
		}
		for _, v := range sp.V {
			s := span{base: v.Top, step: v.Stride, pairs: v.Pairs, kind: kindVN}
			if v.Stride == 1 {
				s.kind = kindV1
			}
			if !finishSpan(&s, rank, 0, int32(cols)) {
				return nil
			}
			ph.spans = append(ph.spans, s)
		}
	}
	return plan
}

// finishSpan verifies monotonicity (every pair's min destination at the
// strictly lower target rank — what settled-window trimming rests on),
// accumulates the span's destination-rank bounds, and detects the affine
// rank pitch that enables end trimming. Returns false — no span plan —
// when a pair is non-monotone.
func finishSpan(s *span, rank []int32, loOff, hiOff int32) bool {
	s.maxLoRank, s.minHiRank = -1, int32(len(rank))
	s.lr0, s.hr0 = rank[s.base+loOff], rank[s.base+hiOff]
	if s.pairs > 1 {
		cell := s.base + s.step
		s.dl = rank[cell+loOff] - s.lr0
		s.dh = rank[cell+hiOff] - s.hr0
	}
	s.affine = true
	for k := int32(0); k < s.pairs; k++ {
		cell := s.base + k*s.step
		lr, hr := rank[cell+loOff], rank[cell+hiOff]
		if lr >= hr {
			return false
		}
		if lr != s.lr0+k*s.dl || hr != s.hr0+k*s.dh {
			s.affine = false
		}
		s.maxLoRank = max(s.maxLoRank, lr)
		s.minHiRank = min(s.minHiRank, hr)
	}
	return true
}

// spanValuesFit reports whether the grid's contiguous value range
// [min, min+n) fits in the span kernel's int32 shadow. Always true for
// the harness's 1..N permutations; a pathological permutation of a range
// near the int bounds falls back to the generic kernel.
func spanValuesFit(tr *grid.DistinctTracker, n int) bool {
	_, minVal := tr.Home()
	return minVal >= math.MinInt32 && int64(minVal)+int64(n)-1 <= math.MaxInt32
}

// b2i converts a comparison outcome to a swap increment without a
// data-dependent branch (the compiler lowers it to a SETcc).
//
//meshlint:hot
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The exec loops run over an int32 shadow of the grid (see
// runDistinctSpans): permutation values are bounded by the cell count, so
// narrowing is exact, and it halves the bytes the hot loops move.
//
// On CPUs with AVX2 (useAVX2, set by the probe in sweep_amd64.go) each
// sweep hands its whole groups — four H pairs or eight stride-1 or four
// stride-2 V pairs per 256-bit register — to its assembly form and
// finishes the remainder with the scalar loop below it. The scalar loops
// are the semantic definition and the only path on other CPUs; the arm
// differential tests (TestSweepArmsAgree, FuzzSweepArms) hold the two
// forms to identical cells and swap counts. Every assembly loop touches
// exactly its span's cells, which is what lets the sharded executor run
// shards' sweeps concurrently over one shadow.

// execHSpanFwd applies the forward pairs (start+2k, start+2k+1), smaller
// value to the left cell, with branchless min/max and no per-comparator
// struct loads. Returns the number of exchanges (strict a > b, exactly
// like the comparator executors).
//
//meshlint:hot
func execHSpanFwd(cells []int32, start, pairs int32) int {
	swaps := 0
	w := cells[start : int(start)+2*int(pairs)]
	if useAVX2 && len(w) >= 8 {
		n := len(w) &^ 7
		swaps = hFwdAVX2(w[:n])
		w = w[n:]
	}
	for k := 1; k < len(w); k += 2 {
		a, b := w[k-1], w[k]
		w[k-1] = min(a, b)
		w[k] = max(a, b)
		swaps += b2i(a > b)
	}
	return swaps
}

// execHSpanRev is the reverse-direction variant: smaller value to the
// right cell. The comparator's Lo is the right cell, so an exchange
// happens exactly when w[k+1] > w[k] held before the step.
//
//meshlint:hot
func execHSpanRev(cells []int32, start, pairs int32) int {
	swaps := 0
	w := cells[start : int(start)+2*int(pairs)]
	if useAVX2 && len(w) >= 8 {
		n := len(w) &^ 7
		swaps = hRevAVX2(w[:n])
		w = w[n:]
	}
	for k := 1; k < len(w); k += 2 {
		a, b := w[k-1], w[k]
		w[k-1] = max(a, b)
		w[k] = min(a, b)
		swaps += b2i(b > a)
	}
	return swaps
}

// execVSpan1 applies a stride-1 vertical span: a contiguous run of
// columns compared against the same run one row below, as two streaming
// slices. This is the memory-order traversal of a uniform-parity column
// step — the engine iterates rows, not comparators.
//
//meshlint:hot
func execVSpan1(cells []int32, top, pairs, cols int32) int {
	swaps := 0
	t := cells[top : top+pairs]
	b := cells[top+cols : top+cols+pairs]
	if useAVX2 && len(t) >= 8 {
		n := len(t) &^ 7
		swaps = v1AVX2(t[:n], b[:n])
		t, b = t[n:], b[n:]
	}
	b = b[:len(t)] // hoist the bounds proof out of the loop
	for k := range t {
		x, y := t[k], b[k]
		t[k] = min(x, y)
		b[k] = max(x, y)
		swaps += b2i(x > y)
	}
	return swaps
}

// execVSpanN applies a strided vertical span (stride 2 for the
// alternating-parity column steps of SN-B/SN-C; only stride 2 has a
// vector form).
//
//meshlint:hot
func execVSpanN(cells []int32, top, stride, pairs, cols int32) int {
	swaps := 0
	if useAVX2 && stride == 2 && pairs >= 4 {
		// Whole groups of four pairs; each slice ends on the group's
		// last pair cell, so the masked loop's footprint is exact.
		g := pairs &^ 3
		swaps = v2AVX2(cells[top:top+2*g-1], cells[top+cols:top+cols+2*g-1])
		top += 2 * g
		pairs -= g
	}
	for k := int32(0); k < pairs; k++ {
		i := top + k*stride
		x, y := cells[i], cells[i+cols]
		cells[i] = min(x, y)
		cells[i+cols] = max(x, y)
		swaps += b2i(x > y)
	}
	return swaps
}

// execPhaseSpans runs one span list — a whole phase for the serial
// kernel, one shard's slice of a phase for the sharded kernel — for one
// step and returns the number of exchanges. win is the list's two
// active-window cursors [win[0], win[1]) and cur its per-span pair
// cursors (two per span, indexed 2j relative to spans); both advance
// permanently, exactly as documented on runDistinctSpans. Serial and
// sharded executors share this body, so their inner logic cannot drift.
//
//meshlint:exempt oblivious settled-window trimming around a branchless span sweep; exactness is proven by the differential suites
//meshlint:hot
func execPhaseSpans(cells []int32, spans []span, cur, win []int32, p32, ns32, cols int32) int {
	swaps := 0
	jLo, jHi := win[0], win[1]
	for jLo < jHi {
		sp := &spans[jLo]
		if sp.maxLoRank >= p32 && sp.minHiRank < ns32 {
			break
		}
		jLo++
	}
	for jLo < jHi {
		sp := &spans[jHi-1]
		if sp.maxLoRank >= p32 && sp.minHiRank < ns32 {
			break
		}
		jHi--
	}
	win[0], win[1] = jLo, jHi
	for j := jLo; j < jHi; j++ {
		sp := &spans[j]
		if sp.maxLoRank < p32 || sp.minHiRank >= ns32 {
			continue
		}
		c := 2 * int(j)
		kLo, kHi := cur[c], cur[c+1]
		if sp.affine {
			// A pair whose min destination is already in the settled
			// prefix (lr < p) or whose max destination is in the
			// settled suffix (hr >= n-s) cannot swap — the same rule
			// runDistinctLazy trims by. Affine ranks put all such
			// pairs at the span's ends, one end per sign of the
			// pitch.
			if sp.dl > 0 {
				for kLo < kHi && sp.lr0+kLo*sp.dl < p32 {
					kLo++
				}
			} else if sp.dl < 0 {
				for kLo < kHi && sp.lr0+(kHi-1)*sp.dl < p32 {
					kHi--
				}
			}
			if sp.dh > 0 {
				for kLo < kHi && sp.hr0+(kHi-1)*sp.dh >= ns32 {
					kHi--
				}
			} else if sp.dh < 0 {
				for kLo < kHi && sp.hr0+kLo*sp.dh >= ns32 {
					kLo++
				}
			}
			cur[c], cur[c+1] = kLo, kHi
			if kLo >= kHi {
				continue
			}
		}
		base := sp.base + kLo*sp.step
		pairs := kHi - kLo
		switch sp.kind {
		case kindHFwd:
			swaps += execHSpanFwd(cells, base, pairs)
		case kindHRev:
			swaps += execHSpanRev(cells, base, pairs)
		case kindV1:
			swaps += execVSpan1(cells, base, pairs, cols)
		default:
			swaps += execVSpanN(cells, base, sp.step, pairs, cols)
		}
	}
	return swaps
}

// runDistinctSpans is the span kernel: the permutation fast path executed
// as typed span sweeps instead of comparator slices. The inner loops are
// branchless (min/max compile to conditional moves, the swap counter to a
// SETcc), run over an int32 shadow of the grid (half the memory traffic;
// permutation values fit exactly), column steps run in memory order, and
// the settled-window machinery of runDistinctLazy carries over at span
// granularity: once the P smallest values occupy their final cells, a
// span whose every min-destination rank lies below P cannot swap and is
// skipped whole (symmetrically for the suffix), so the early exit fires
// on exactly the same step. Skipped spans still count their comparisons,
// so Steps, Swaps, and Comparisons are bit-identical to every other
// executor — the differential suites prove it.
//
//meshlint:exempt oblivious settled-window completion detection around a branchless span sweep; exactness is proven by the differential suites
func runDistinctSpans(g *grid.Grid, plan *spanPlan, maxSteps int, tr *grid.DistinctTracker) (Result, error) {
	gc := g.Cells()
	_, minVal := tr.Home()
	n := plan.n
	cols := int32(plan.cols)
	rankFlat := plan.rankFlat

	// Shadow the grid in int32: the sweeps move half the bytes, and the
	// O(N) copies at entry and exit are amortized over Θ(N) steps.
	cells := make([]int32, n)
	for i, v := range gc {
		cells[i] = int32(v)
	}
	writeBack := func() {
		for i, v := range cells {
			gc[i] = int(v)
		}
	}

	var res Result
	period := len(plan.phases)
	pi := 0

	// Per-run trim cursors, two per span: the active pair window
	// [cur[c], cur[c+1]) of each affine span. They only advance (the
	// settled windows only grow), so the trims below are amortized O(1).
	// win holds two more cursors per phase bounding the active span
	// window [win[2i], win[2i+1]): a span whose skip condition holds is
	// skippable forever, so phases stop visiting their settled ends
	// entirely.
	cur := make([]int32, plan.curLen)
	win := make([]int32, 2*len(plan.phases))
	for i := range plan.phases {
		ph := &plan.phases[i]
		win[2*i+1] = int32(len(ph.spans))
		for j := range ph.spans {
			cur[ph.curOff+2*j+1] = ph.spans[j].pairs
		}
	}

	p, s := 0, 0 // settled prefix / suffix sizes, in ranks
	min32 := int32(minVal)
	for p+s < n && cells[rankFlat[p]] == min32+int32(p) {
		p++
	}
	for p+s < n && cells[rankFlat[n-1-s]] == min32+int32(n-1-s) {
		s++
	}
	for t := 1; t <= maxSteps; t++ {
		ph := &plan.phases[pi]
		w := 2 * pi
		if pi++; pi == period {
			pi = 0
		}
		p32, ns32 := int32(p), int32(n-s)
		swaps := execPhaseSpans(cells, ph.spans, cur[ph.curOff:], win[w:w+2], p32, ns32, cols)
		res.Swaps += int64(swaps)
		res.Comparisons += ph.pairs
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
