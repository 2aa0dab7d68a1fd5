package zeroone

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/sched"
)

// The 0-1 principle lets every lemma check and most worst-case experiments
// run on binary grids. On those, a compare-exchange either leaves its two
// cells alone or flips both: the pair swaps exactly when the destination
// of the smaller value holds 1 and the destination of the larger holds 0.
// The cell-packed kernel stores a grid one bit per cell (bit i of word
// i/64 is flat cell i) and runs a step as one pass per family: all the
// step's comparators at one flat distance delta (row pairs and wrap wires
// are 1 apart, column pairs `cols` apart). Per word, with x the low cells
// and p the partner bits shifted down by delta,
//
//	s = (x ^ p) & (x&mF | p&mR)
//
// marks the swapping pairs at their low cells — mF holds the pairs whose
// smaller value belongs at the low cell, mR those whose smaller value
// belongs at the high cell (reverse snake rows) — and the pass XORs s into
// the low cells and s<<delta into the high cells. The pass runs in place:
// the comparators of one step are pairwise disjoint, so the only cells a
// pass has already rewritten when it reads a word are high cells of other
// pairs, which the masks drop. SortPacked is verified bit-identical to the
// scalar engine (grid, Steps, Swaps, Comparisons, step-limit errors) by
// the differential tests.

// packedWords is the length of a packed word buffer for n cells: one bit
// per cell plus a zero word past the end, so a pass may read and write the
// word after its last high cell without a bounds branch.
func packedWords(n int) int { return (n+63)/64 + 1 }

// packedFamily is every comparator of one step at flat distance delta.
// Words w0..w1 hold the low cells of its pairs; fwd[i−w0] and rev[i−w0]
// are the mF and mR masks of word i.
type packedFamily struct {
	delta    int
	w0, w1   int
	fwd, rev []uint64
}

// packedStep is one schedule step compiled to bitwise form. Every step of
// the schedules in internal/sched is a single family, so the first one is
// held inline and the step loop chases no pointer to reach it.
type packedStep struct {
	fam         packedFamily
	more        []packedFamily // families after the first, in delta order of appearance
	comparisons int64          // comparators in the step (matches the scalar count)
}

// PackedSchedule is a schedule compiled for the cell-packed kernel: one
// full period of packedSteps, shared read-only across trials.
type PackedSchedule struct {
	name       string
	order      grid.Order
	rows, cols int
	steps      []packedStep
	// monotone records that every comparator sends the smaller value to
	// the strictly lower target rank, which is what the settled-window
	// cursors of runPacked rest on; otherwise each step rescans the grid.
	monotone bool
}

// Name returns the underlying schedule's identifier.
func (ps *PackedSchedule) Name() string { return ps.name }

// Order returns the target ordering.
func (ps *PackedSchedule) Order() grid.Order { return ps.order }

// Dims returns the mesh dimensions.
func (ps *PackedSchedule) Dims() (int, int) { return ps.rows, ps.cols }

// Period returns the number of steps in one full period.
func (ps *PackedSchedule) Period() int { return len(ps.steps) }

// CompilePacked compiles s for the cell-packed kernel. Any schedule whose
// steps consist of pairwise-disjoint comparators compiles; every step of
// the schedules in internal/sched is a single family (rows and wrap wires
// at distance 1, or columns at distance `cols`).
func CompilePacked(s sched.Schedule) *PackedSchedule {
	rows, cols := s.Dims()
	phases := sched.PhasesOf(s)
	ps := &PackedSchedule{
		name: s.Name(), order: s.Order(),
		rows: rows, cols: cols,
		steps:    make([]packedStep, len(phases)),
		monotone: true,
	}
	rank := make([]int32, rows*cols) // rank[flat] = target rank; compile-time only
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			rank[ps.rankFlat(r, c)] = int32(r*cols + c)
		}
	}
	for si, comps := range phases {
		var fams []packedFamily
		for _, cmp := range comps {
			low, high := int(min(cmp.Lo, cmp.Hi)), int(max(cmp.Lo, cmp.Hi))
			if rank[cmp.Lo] >= rank[cmp.Hi] {
				ps.monotone = false
			}
			f := familyOf(&fams, high-low)
			f.w0, f.w1 = min(f.w0, low>>6), max(f.w1, low>>6)
		}
		for fi := range fams {
			f := &fams[fi]
			k := f.w1 - f.w0 + 1
			masks := make([]uint64, 2*k)
			f.fwd, f.rev = masks[:k:k], masks[k:]
		}
		for _, cmp := range comps {
			low, high := int(min(cmp.Lo, cmp.Hi)), int(max(cmp.Lo, cmp.Hi))
			f := familyOf(&fams, high-low)
			m := f.fwd
			if int(cmp.Lo) != low {
				m = f.rev // the smaller value belongs at the high cell
			}
			m[low>>6-f.w0] |= 1 << (uint(low) & 63)
		}
		st := &ps.steps[si]
		st.comparisons = int64(len(comps))
		if len(fams) == 0 {
			// A step without comparators (rows of a one-column mesh):
			// an empty word range makes its pass a no-op.
			st.fam = packedFamily{w0: math.MaxInt, w1: -1}
			continue
		}
		st.fam = fams[0]
		if len(fams) > 1 {
			st.more = fams[1:]
		}
	}
	return ps
}

// familyOf returns the family of *fams at distance delta, appending one
// with an empty word range the first time delta appears. A step has one
// or two families, so a linear scan beats a map.
func familyOf(fams *[]packedFamily, delta int) *packedFamily {
	for i := range *fams {
		if (*fams)[i].delta == delta {
			return &(*fams)[i]
		}
	}
	*fams = append(*fams, packedFamily{delta: delta, w0: math.MaxInt, w1: -1})
	return &(*fams)[len(*fams)-1]
}

var packedCache sync.Map // packedCacheKey -> *PackedSchedule

type packedCacheKey struct {
	name       string
	rows, cols int
}

// CachedPacked returns the cell-packed compilation of algorithm name on an
// R×C mesh, building it at most once per process. It compiles from a
// fresh schedule rather than sched.Cached, so only the packed program is
// retained and the comparator lists become garbage.
func CachedPacked(name string, rows, cols int) (*PackedSchedule, error) {
	k := packedCacheKey{name, rows, cols}
	if v, ok := packedCache.Load(k); ok {
		return v.(*PackedSchedule), nil
	}
	s, err := sched.ByName(name, rows, cols)
	if err != nil {
		return nil, err
	}
	v, _ := packedCache.LoadOrStore(k, CompilePacked(s))
	return v.(*PackedSchedule), nil
}

// PackedScratch is a reusable word buffer for SortPackedScratch: a worker
// that sorts many grids of one shape packs each into the same buffer and
// allocates nothing per trial.
type PackedScratch struct {
	words []uint64
}

// NewPackedScratch returns a scratch buffer for R×C grids.
func NewPackedScratch(rows, cols int) *PackedScratch {
	return &PackedScratch{words: make([]uint64, packedWords(rows*cols))}
}

// SortPacked runs the cell-packed 0-1 kernel: it sorts g (in place, g must
// hold only 0s and 1s) under schedule ps until the grid reaches target
// order or maxSteps is hit (0 uses engine.DefaultMaxSteps). The returned
// Result and the final grid are bit-identical to running the scalar
// engine on the same input.
func SortPacked(g *grid.Grid, ps *PackedSchedule, maxSteps int) (engine.Result, error) {
	return SortPackedScratch(g, ps, maxSteps, nil)
}

// SortPackedScratch is SortPacked packing g into sc's buffer; a nil or
// mis-sized sc gets a fresh buffer.
func SortPackedScratch(g *grid.Grid, ps *PackedSchedule, maxSteps int, sc *PackedScratch) (engine.Result, error) {
	if g.Rows() != ps.rows || g.Cols() != ps.cols {
		return engine.Result{}, fmt.Errorf("zeroone: grid is %dx%d but packed schedule %s was built for %dx%d",
			g.Rows(), g.Cols(), ps.name, ps.rows, ps.cols)
	}
	if maxSteps == 0 {
		maxSteps = engine.DefaultMaxSteps(ps.rows, ps.cols)
	}
	n := g.Len()
	if sc == nil || len(sc.words) != packedWords(n) {
		sc = NewPackedScratch(ps.rows, ps.cols)
	}
	b := sc.words
	alpha := n - packInto(b, g)
	res, misplaced := runPacked(b, ps, maxSteps, alpha)
	if res.Swaps > 0 {
		unpackInto(b, g)
	}
	if !res.Sorted {
		return res, &engine.ErrStepLimit{Algorithm: ps.name, MaxSteps: maxSteps, Misplaced: misplaced}
	}
	return res, nil
}

// packInto writes g's cells into b one bit per cell, clearing the rest of
// b, and returns the number of 1s. It panics unless g holds only 0s and
// 1s.
//
//meshlint:exempt oblivious packing reads every cell once to build the bit array; no comparator depends on the values
func packInto(b []uint64, g *grid.Grid) (ones int) {
	cells := g.Cells()
	clear(b[len(cells)>>6:])
	acc := 0
	for i := 0; i < len(cells); i += 64 {
		var w uint64
		for j, v := range cells[i:min(i+64, len(cells))] {
			acc |= v
			w |= uint64(v&1) << uint(j)
		}
		b[i>>6] = w
		ones += bits.OnesCount64(w)
	}
	if acc&^1 != 0 {
		requireZeroOne(g)
	}
	return ones
}

// unpackInto writes the packed cells of b back into g.
func unpackInto(b []uint64, g *grid.Grid) {
	cells, n := g.Cells(), g.Len()
	for i := 0; i < n; i += 64 {
		w := b[i>>6]
		for j := i; j < min(i+64, n); j++ {
			cells[j] = int(w >> (uint(j) & 63) & 1)
		}
	}
}

// bitAt returns the value (0 or 1) of flat cell f.
//
//meshlint:hot
func bitAt(b []uint64, f int) uint64 {
	return b[f>>6] >> (uint(f) & 63) & 1
}

// rankFlat returns the flat cell of the target rank at (row, col), col
// counted in rank order: snake order reverses odd rows.
//
//meshlint:hot
func (ps *PackedSchedule) rankFlat(row, col int) int {
	if ps.order == grid.Snake && row&1 == 1 {
		col = ps.cols - 1 - col
	}
	return row*ps.cols + col
}

// runPacked executes ps on the packed grid b holding alpha 0s and returns
// the Result together with the number of 1s left among the first alpha
// target ranks (0 once sorted).
//
// On a monotone schedule two rank cursors replace any rescan: q is the
// length of the all-0 prefix of target ranks and s the length of the
// all-1 suffix. A comparator sends the smaller value to the lower rank, so
// a pair with its min destination in the prefix compares a 0 there and
// one with its max destination in the suffix compares a 1 there; neither
// can swap, the prefix and suffix never shrink, and the grid is sorted
// exactly when q reaches alpha. Both cells of every pair that can still
// swap therefore lie in the unsettled rank range [q, n−s), and since both
// target orders put rank m in row m/cols, the passes visit only the words
// of rows q/cols … (n−1−s)/cols. Comparisons still count the whole step.
//
// A sorted grid is a fixed point of a monotone schedule, so the step that
// sorted the grid is its last swapping step. The loop therefore records
// that step and advances the cursors only every checkEvery steps (and once
// after the last); a window a few steps stale is still sound, only wider.
// The cursors carry their row and column, so the loop never divides.
//
//meshlint:hot
func runPacked(b []uint64, ps *PackedSchedule, maxSteps, alpha int) (res engine.Result, misplaced int) {
	if !ps.monotone {
		return runPackedScan(b, ps, maxSteps, alpha)
	}
	cur := rankCursors{sRow: ps.rows - 1, sCol: ps.cols - 1}
	if cur.advance(b, ps, alpha) {
		res.Sorted = true
		return res, 0
	}
	lo, hi := cur.window(ps.cols)
	var lastSwap int
	var swapComps, swaps int64
	period := len(ps.steps)
	pi := 0
	for t := 1; t <= maxSteps; t++ {
		st := &ps.steps[pi]
		if pi++; pi == period {
			pi = 0
		}
		res.Comparisons += st.comparisons
		k := st.fam.pass(b, lo, hi)
		for fi := range st.more {
			k += st.more[fi].pass(b, lo, hi)
		}
		if k != 0 {
			swaps += int64(k)
			lastSwap, swapComps = t, res.Comparisons
		}
		if t&(checkEvery-1) == 0 {
			if cur.advance(b, ps, alpha) {
				break
			}
			lo, hi = cur.window(ps.cols)
		}
	}
	if cur.q == alpha || cur.advance(b, ps, alpha) {
		res.Steps, res.Comparisons, res.Swaps = lastSwap, swapComps, swaps
		res.Sorted = true
		return res, 0
	}
	res.Swaps = swaps
	return res, zeroRegionOnes(b, ps, alpha)
}

// rankCursors are runPacked's settled-window cursors: q ranks form the
// all-0 prefix, the next being at (qRow, qCol), and s ranks the all-1
// suffix, the next below it at (sRow, sCol); columns count in rank order.
type rankCursors struct {
	q, qRow, qCol int
	s, sRow, sCol int
}

// advance moves both cursors past every settled rank and reports whether
// the grid is sorted (q has reached alpha, the zero count).
//
//meshlint:hot
//meshlint:exempt oblivious settled-window completion detection around branchless family passes; exactness is proven by the differential suites
func (c *rankCursors) advance(b []uint64, ps *PackedSchedule, alpha int) bool {
	cols := ps.cols
	for c.q < alpha && bitAt(b, ps.rankFlat(c.qRow, c.qCol)) == 0 {
		c.q++
		if c.qCol++; c.qCol == cols {
			c.qRow, c.qCol = c.qRow+1, 0
		}
	}
	if c.q == alpha {
		return true
	}
	for c.s < ps.rows*cols-alpha && bitAt(b, ps.rankFlat(c.sRow, c.sCol)) == 1 {
		c.s++
		if c.sCol--; c.sCol < 0 {
			c.sRow, c.sCol = c.sRow-1, cols-1
		}
	}
	return false
}

// window returns the words [lo, hi] that hold the cursors' unsettled rows.
//
//meshlint:hot
func (c *rankCursors) window(cols int) (lo, hi int) {
	return c.qRow * cols >> 6, ((c.sRow+1)*cols - 1) >> 6
}

// checkEvery is how many steps runPacked runs between cursor advances: one
// period of the paper's algorithms. It must be a power of two.
const checkEvery = 4

// runPackedScan is runPacked for a non-monotone schedule: no rank window
// is sound there, so every pass covers its whole family and sortedness is
// a full zeroRegionOnes scan after each swapping step.
//
//meshlint:hot
//meshlint:exempt oblivious completion detection by rescanning the zero region; exactness is proven by the differential suites
func runPackedScan(b []uint64, ps *PackedSchedule, maxSteps, alpha int) (res engine.Result, misplaced int) {
	misplaced = zeroRegionOnes(b, ps, alpha)
	if misplaced == 0 {
		res.Sorted = true
		return res, 0
	}
	period := len(ps.steps)
	pi := 0
	for t := 1; t <= maxSteps; t++ {
		st := &ps.steps[pi]
		if pi++; pi == period {
			pi = 0
		}
		res.Comparisons += st.comparisons
		swaps := st.fam.pass(b, 0, len(b))
		for fi := range st.more {
			swaps += st.more[fi].pass(b, 0, len(b))
		}
		if swaps == 0 {
			continue
		}
		res.Swaps += int64(swaps)
		if misplaced = zeroRegionOnes(b, ps, alpha); misplaced == 0 {
			res.Steps = t
			res.Sorted = true
			return res, 0
		}
	}
	return res, misplaced
}

// zeroRegionOnes counts the 1s among the first alpha target ranks — the
// packed equivalent of grid.ZeroOneTracker's misplacement measure. Those
// ranks are the flat cells of the first alpha/cols rows plus a run of
// alpha%cols cells of the next row, at its right end on a reversed snake
// row.
//
//meshlint:hot
func zeroRegionOnes(b []uint64, ps *PackedSchedule, alpha int) int {
	full := alpha / ps.cols * ps.cols
	part := alpha - full
	start := full
	if ps.order == grid.Snake && (full/ps.cols)&1 == 1 {
		start += ps.cols - part
	}
	return onesInRange(b, 0, full) + onesInRange(b, start, start+part)
}

// onesInRange counts the 1 bits of flat cells [lo, hi).
//
//meshlint:hot
func onesInRange(b []uint64, lo, hi int) int {
	n := 0
	for f := lo; f < hi; {
		w := b[f>>6] >> (uint(f) & 63)
		if k := hi - f; k < 64-f&63 {
			w &= 1<<uint(k) - 1
		}
		n += bits.OnesCount64(w)
		f = (f | 63) + 1
	}
	return n
}

// pass applies the family to b over the words [lo, hi] of the window,
// clipped to the family's own word range, and returns its swap count. It
// dispatches on the shape of delta = 64·ws + bs to one loop each: delta 1
// (row pairs and wrap wires), any other delta below 64 (columns of meshes
// narrower than 64), bs == 0 (columns when cols % 64 == 0), and the
// general funnel shift. b holds one word past the last cell, so every
// loop may touch the word after its last high cell.
//
//meshlint:hot
func (f *packedFamily) pass(b []uint64, lo, hi int) int {
	i0, i1 := max(lo, f.w0), min(hi, f.w1)
	if i0 > i1 {
		return 0
	}
	fwd, rev := f.fwd[i0-f.w0:i1-f.w0+1], f.rev[i0-f.w0:i1-f.w0+1]
	ws, bs := f.delta>>6, uint(f.delta&63)
	switch {
	case f.delta == 1:
		return passDelta1(b[i0:i1+2], fwd, rev)
	case ws == 0:
		return passSubWord(b[i0:i1+2], fwd, rev, bs)
	case bs == 0:
		return passAligned(b[i0:i1+1], b[i0+ws:i1+ws+1], fwd, rev)
	default:
		return passFunnel(b[i0:i1+1], b[i0+ws:i1+ws+2], fwd, rev, bs)
	}
}

// passDelta1 is the pass of a delta-1 family over the low-cell words
// v[:len(v)−1]; v's last word receives the carry of the final high cells.
// The high cell of a pair at bit 63 lies in the next word, so each word's
// outgoing carry stays in a register until that word is written.
//
//meshlint:hot
func passDelta1(v, fwd, rev []uint64) (swaps int) {
	tail := v[1:]
	head := v[:len(tail)]
	fwd, rev = fwd[:len(tail)], rev[:len(tail)]
	x := head[0]
	var carry uint64
	for j, next := range tail {
		p := x>>1 | next<<63
		s := (x ^ p) & (x&fwd[j] | p&rev[j])
		head[j] = x ^ s ^ s<<1 ^ carry
		carry = s >> 63
		swaps += popcount(s)
		x = next
	}
	tail[len(tail)-1] = x ^ carry
	return swaps
}

// passSubWord is passDelta1 for any delta below 64: the high cells of a
// word's pairs straddle it and the next word.
//
//meshlint:hot
func passSubWord(v, fwd, rev []uint64, bs uint) (swaps int) {
	tail := v[1:]
	head := v[:len(tail)]
	fwd, rev = fwd[:len(tail)], rev[:len(tail)]
	bs &= 63
	cs := (64 - bs) & 63
	x := head[0]
	var carry uint64
	for j, next := range tail {
		p := x>>bs | next<<cs
		s := (x ^ p) & (x&fwd[j] | p&rev[j])
		head[j] = x ^ s ^ s<<bs ^ carry
		carry = s >> cs
		swaps += popcount(s)
		x = next
	}
	tail[len(tail)-1] = x ^ carry
	return swaps
}

// passAligned is the pass of a family whose delta is a multiple of 64:
// hi[j] holds the high cells of the pairs whose low cells are lo[j].
//
//meshlint:hot
func passAligned(lo, hi, fwd, rev []uint64) (swaps int) {
	hi = hi[:len(lo)]
	fwd = fwd[:len(lo)]
	rev = rev[:len(lo)]
	for j, x := range lo {
		p := hi[j]
		s := (x ^ p) & (x&fwd[j] | p&rev[j])
		lo[j] = x ^ s
		hi[j] = p ^ s
		swaps += popcount(s)
	}
	return swaps
}

// passFunnel is the general pass for delta = 64·ws + bs with ws ≥ 1 and
// bs ≠ 0: the partner bits of lo[j] funnel-shift out of hi[j] and
// hi[j+1], which is up[j].
//
//meshlint:hot
func passFunnel(lo, hi, fwd, rev []uint64, bs uint) (swaps int) {
	up := hi[1:][:len(lo)]
	hi = hi[:len(lo)]
	fwd = fwd[:len(lo)]
	rev = rev[:len(lo)]
	bs &= 63
	cs := (64 - bs) & 63
	for j, x := range lo {
		p := hi[j]>>bs | up[j]<<cs
		s := (x ^ p) & (x&fwd[j] | p&rev[j])
		lo[j] = x ^ s
		hi[j] ^= s << bs
		up[j] ^= s >> cs
		swaps += popcount(s)
	}
	return swaps
}

// popcount is bits.OnesCount64 without the runtime CPU-feature branch,
// whose call fallback makes the compiler spill the pass loops' registers
// on the default amd64 target: a branch-free SWAR count.
//
//meshlint:hot
func popcount(x uint64) int {
	const m1, m2, m4, h01 = 0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f, 0x0101010101010101
	x -= x >> 1 & m1
	x = x&m2 + x>>2&m2
	x = (x + x>>4) & m4
	return int(x * h01 >> 56)
}
