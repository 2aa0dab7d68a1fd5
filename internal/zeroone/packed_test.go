package zeroone

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	src := rng.New(42)
	for _, shape := range []struct{ rows, cols int }{
		{1, 1}, {1, 7}, {9, 1}, {8, 8}, {5, 13}, {11, 6}, {16, 16}, {3, 65},
	} {
		n := shape.rows * shape.cols
		b := make([]uint64, packedWords(n))
		for trial := 0; trial < 5; trial++ {
			alpha := rng.Intn(src, n+1)
			g := workload.RandomZeroOne(src, shape.rows, shape.cols, alpha)
			b[len(b)-1] = ^uint64(0) // packInto must clear stale words
			if got := packInto(b, g); got != n-alpha {
				t.Fatalf("%dx%d alpha=%d: packInto counted %d ones", shape.rows, shape.cols, alpha, got)
			}
			if b[len(b)-1] != 0 {
				t.Fatalf("%dx%d: padding word not cleared", shape.rows, shape.cols)
			}
			out := grid.New(shape.rows, shape.cols)
			unpackInto(b, out)
			if !out.Equal(g) {
				t.Fatalf("%dx%d alpha=%d: round trip mismatch", shape.rows, shape.cols, alpha)
			}
		}
	}
}

func TestPackRejectsNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SortPacked accepted a non-0-1 grid")
		}
	}()
	ps, err := CachedPacked("snake-a", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	SortPacked(grid.FromRows([][]int{{0, 2}}), ps, 0)
}

// TestCompilePackedFamilies pins the compiled shape: every step of every
// schedule is one fused family per distinct delta (a single family for
// the schedules in internal/sched), its mask bits are exactly the step's
// comparators, no pair is in both direction masks, and the family's word
// range is the tight bound of its low cells.
func TestCompilePackedFamilies(t *testing.T) {
	for _, shape := range [][2]int{{16, 16}, {5, 70}, {3, 128}} {
		for _, name := range sched.Names() {
			s, err := sched.ByName(name, shape[0], shape[1])
			if err != nil {
				t.Fatal(err)
			}
			ps := CompilePacked(s)
			if !ps.monotone {
				t.Errorf("%s %v: compiled as non-monotone", name, shape)
			}
			for i, st := range ps.steps {
				if len(st.more) != 0 {
					t.Errorf("%s %v step %d compiled to %d families, want 1", name, shape, i+1, 1+len(st.more))
				}
				total := 0
				for _, f := range append([]packedFamily{st.fam}, st.more...) {
					k := f.w1 - f.w0 + 1
					if len(f.fwd) != k || len(f.rev) != k {
						t.Fatalf("%s step %d: %d+%d mask words for word range [%d, %d]", name, i+1, len(f.fwd), len(f.rev), f.w0, f.w1)
					}
					for j, mF := range f.fwd {
						mR := f.rev[j]
						if mF&mR != 0 {
							t.Errorf("%s step %d word %d: mF & mR = %#x", name, i+1, f.w0+j, mF&mR)
						}
						total += bits.OnesCount64(mF) + bits.OnesCount64(mR)
					}
					if f.fwd[0]|f.rev[0] == 0 || f.fwd[k-1]|f.rev[k-1] == 0 {
						t.Errorf("%s step %d: word range [%d, %d] is not tight", name, i+1, f.w0, f.w1)
					}
				}
				if int64(total) != st.comparisons {
					t.Errorf("%s %v step %d: mask bits %d != comparators %d", name, shape, i+1, total, st.comparisons)
				}
			}
		}
	}
}

// checkPackedMatchesScalar runs input through the scalar engine and the
// packed kernel under s with cap maxSteps and requires identical Results,
// step-limit errors (Misplaced included) and final grids.
func checkPackedMatchesScalar(t *testing.T, s sched.Schedule, ps *PackedSchedule, input *grid.Grid, maxSteps int, label string) {
	t.Helper()
	gs := input.Clone()
	rs, errS := engine.Run(gs, s, engine.Options{MaxSteps: maxSteps})
	gp := input.Clone()
	rp, errP := SortPacked(gp, ps, maxSteps)
	if (errS == nil) != (errP == nil) || errS != nil && errS.Error() != errP.Error() {
		t.Fatalf("%s: scalar err %v, packed err %v", label, errS, errP)
	}
	if rs != rp {
		t.Fatalf("%s: scalar %+v != packed %+v", label, rs, rp)
	}
	if !gs.Equal(gp) {
		t.Fatalf("%s: final grids differ", label)
	}
}

// TestSortPackedMatchesScalar is a randomized sweep beyond the engine
// differential suite: larger meshes, random zero counts.
func TestSortPackedMatchesScalar(t *testing.T) {
	src := rng.New(2024)
	for _, name := range sched.Names() {
		for _, side := range []int{8, 16, 32} {
			s, err := sched.Cached(name, side, side)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := CachedPacked(name, side, side)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				alpha := rng.Intn(src, side*side+1)
				input := workload.RandomZeroOne(src, side, side, alpha)
				checkPackedMatchesScalar(t, s, ps, input, 0, fmt.Sprintf("%s side %d alpha %d", name, side, alpha))
			}
		}
	}
}

// TestSortPackedWideMatchesScalar covers the pass loops the square sweep
// cannot reach: column distances of 63–129 cells run the word-straddling
// and word-aligned passes, and a row window spans several words per row.
// Inputs are random, all-0 and all-1 grids; caps of 1, 3 and 7 steps stop
// runs mid-sort so step-limit errors and their Misplaced counts compare
// too.
func TestSortPackedWideMatchesScalar(t *testing.T) {
	src := rng.New(0x71DE)
	names := append(sched.Names(), "rm-rf-nowrap")
	for _, cols := range []int{63, 64, 65, 96, 127, 128, 129} {
		for rows := 2; rows <= 5; rows++ {
			n := rows * cols
			for _, name := range names {
				if cols%2 == 1 && (name == "rm-rf" || name == "rm-cf" || name == "rm-rf-nowrap") {
					continue
				}
				s, err := sched.Cached(name, rows, cols)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := CachedPacked(name, rows, cols)
				if err != nil {
					t.Fatal(err)
				}
				inputs := []*grid.Grid{
					workload.RandomZeroOne(src, rows, cols, rng.Intn(src, n+1)),
					workload.RandomZeroOne(src, rows, cols, rng.Intn(src, n+1)),
					workload.RandomZeroOne(src, rows, cols, n),
					workload.RandomZeroOne(src, rows, cols, 0),
				}
				for ii, input := range inputs {
					for _, maxSteps := range []int{0, 1, 3, 7} {
						checkPackedMatchesScalar(t, s, ps, input, maxSteps,
							fmt.Sprintf("%s %dx%d input %d cap %d", name, rows, cols, ii, maxSteps))
					}
				}
			}
		}
	}
}

// listSchedule is a hand-built schedule for tests: an explicit list of
// per-step comparator sets.
type listSchedule struct {
	order      grid.Order
	rows, cols int
	phases     [][]sched.Comparator
}

func (l *listSchedule) Name() string      { return "list" }
func (l *listSchedule) Order() grid.Order { return l.order }
func (l *listSchedule) Dims() (int, int)  { return l.rows, l.cols }
func (l *listSchedule) Period() int       { return len(l.phases) }
func (l *listSchedule) Step(t int) []sched.Comparator {
	return l.phases[(t-1)%len(l.phases)]
}

// TestSortPackedNonMonotone pins the full-scan path: snake-a with one
// row pair of its first step flipped sends a smaller value to the higher
// target rank, so the schedule compiles non-monotone and no rank window
// is sound. The packed kernel must still match the scalar engine exactly,
// step-limit errors included.
func TestSortPackedNonMonotone(t *testing.T) {
	src := rng.New(0xBAD)
	for _, shape := range [][2]int{{4, 4}, {6, 9}, {3, 70}} {
		rows, cols := shape[0], shape[1]
		base, err := sched.ByName("snake-a", rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		phases := sched.PhasesOf(base)
		ls := &listSchedule{order: base.Order(), rows: rows, cols: cols, phases: make([][]sched.Comparator, len(phases))}
		for i, comps := range phases {
			ls.phases[i] = append([]sched.Comparator(nil), comps...)
		}
		c := &ls.phases[0][0]
		c.Lo, c.Hi = c.Hi, c.Lo
		ps := CompilePacked(ls)
		if ps.monotone {
			t.Fatalf("%dx%d: flipped schedule compiled as monotone", rows, cols)
		}
		n := rows * cols
		for trial := 0; trial < 6; trial++ {
			input := workload.RandomZeroOne(src, rows, cols, rng.Intn(src, n+1))
			for _, maxSteps := range []int{0, 1, 3, 7} {
				checkPackedMatchesScalar(t, ls, ps, input, maxSteps,
					fmt.Sprintf("non-monotone %dx%d trial %d cap %d", rows, cols, trial, maxSteps))
			}
		}
	}
}

// TestSortPackedMixedFamilies covers steps with two families: snake-a
// with an extra first step that runs row 0's row pairs (distance 1) and
// the column pairs below row 0 (distance cols) at once. The schedule
// stays monotone, so both families run inside the settled window.
func TestSortPackedMixedFamilies(t *testing.T) {
	src := rng.New(0x2F)
	for _, shape := range [][2]int{{6, 6}, {5, 70}} {
		rows, cols := shape[0], shape[1]
		base, err := sched.ByName("snake-a", rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		phases := sched.PhasesOf(base)
		var mixed []sched.Comparator
		for _, comps := range phases[:2] {
			for _, c := range comps {
				lo, hi := int(min(c.Lo, c.Hi)), int(max(c.Lo, c.Hi))
				if hi-lo == 1 && hi < cols || hi-lo == cols && lo >= cols {
					mixed = append(mixed, c)
				}
			}
		}
		ls := &listSchedule{order: base.Order(), rows: rows, cols: cols,
			phases: append([][]sched.Comparator{mixed}, phases...)}
		ps := CompilePacked(ls)
		if !ps.monotone || len(ps.steps[0].more) != 1 {
			t.Fatalf("%dx%d: mixed step compiled to monotone=%v and %d families, want true and 2",
				rows, cols, ps.monotone, 1+len(ps.steps[0].more))
		}
		n := rows * cols
		for trial := 0; trial < 6; trial++ {
			input := workload.RandomZeroOne(src, rows, cols, rng.Intn(src, n+1))
			for _, maxSteps := range []int{0, 1, 3, 7} {
				checkPackedMatchesScalar(t, ls, ps, input, maxSteps,
					fmt.Sprintf("mixed %dx%d trial %d cap %d", rows, cols, trial, maxSteps))
			}
		}
	}
}

// FuzzPackedMatchesScalar fuzzes the shape axis of the packed kernel
// against the scalar engine: any schedule, rows 1–8, cols 1–140, any
// zero count and step cap.
//
// Run with: go test -fuzz=FuzzPackedMatchesScalar ./internal/zeroone/
func FuzzPackedMatchesScalar(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(64), uint64(1), uint16(0))
	f.Add(uint8(2), uint8(3), uint8(65), uint64(2), uint16(5))
	f.Add(uint8(4), uint8(8), uint8(127), uint64(3), uint16(0))
	f.Add(uint8(5), uint8(1), uint8(140), uint64(4), uint16(2))
	f.Fuzz(func(t *testing.T, algIdx, rows8, cols8 uint8, seed uint64, cap16 uint16) {
		names := append(sched.Names(), "rm-rf-nowrap")
		name := names[int(algIdx)%len(names)]
		rows, cols := 1+int(rows8)%8, 1+int(cols8)%140
		if cols%2 == 1 && (name == "rm-rf" || name == "rm-cf" || name == "rm-rf-nowrap") {
			cols++
		}
		s, err := sched.Cached(name, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := CachedPacked(name, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed)
		n := rows * cols
		input := workload.RandomZeroOne(src, rows, cols, rng.Intn(src, n+1))
		checkPackedMatchesScalar(t, s, ps, input, int(cap16)%64,
			fmt.Sprintf("%s %dx%d seed %d cap %d", name, rows, cols, seed, int(cap16)%64))
	})
}

// TestSortPackedScratchNoAllocs pins the batch path's allocation budget:
// with a reused scratch a packed trial allocates nothing.
func TestSortPackedScratchNoAllocs(t *testing.T) {
	for _, side := range []int{8, 64, 65} {
		ps, err := CachedPacked("snake-c", side, side)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(5)
		input := workload.HalfZeroOne(src, side, side)
		g := input.Clone()
		sc := NewPackedScratch(side, side)
		allocs := testing.AllocsPerRun(20, func() {
			copy(g.Cells(), input.Cells())
			if _, err := SortPackedScratch(g, ps, 0, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("side %d: %.1f allocs per packed trial with scratch, want 0", side, allocs)
		}
	}
}

func TestPopcountMatchesBits(t *testing.T) {
	src := rng.New(77)
	for _, x := range []uint64{0, 1, 1 << 63, ^uint64(0), 0x5555555555555555} {
		if popcount(x) != bits.OnesCount64(x) {
			t.Fatalf("popcount(%#x) = %d, want %d", x, popcount(x), bits.OnesCount64(x))
		}
	}
	for i := 0; i < 10000; i++ {
		x := src.Uint64() & src.Uint64()
		if popcount(x) != bits.OnesCount64(x) {
			t.Fatalf("popcount(%#x) = %d, want %d", x, popcount(x), bits.OnesCount64(x))
		}
	}
}

func TestSortPackedDimensionMismatch(t *testing.T) {
	ps, err := CachedPacked("snake-a", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SortPacked(grid.New(4, 6), ps, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// BenchmarkSortPacked times the packed kernel per (algorithm, side) on
// half-0/half-1 grids with a reused scratch, reporting ns per word-step
// (one pass-equivalent over one packed word) alongside allocs/op.
//
// Run with: go test -run '^$' -bench SortPacked -benchmem ./internal/zeroone/
func BenchmarkSortPacked(b *testing.B) {
	for _, name := range sched.PaperNames() {
		for _, side := range []int{8, 16, 32, 64, 128} {
			b.Run(fmt.Sprintf("%s/side=%d", name, side), func(b *testing.B) {
				ps, err := CachedPacked(name, side, side)
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(uint64(side))
				inputs := make([]*grid.Grid, 8)
				for i := range inputs {
					inputs[i] = workload.HalfZeroOne(src, side, side)
				}
				g := grid.New(side, side)
				sc := NewPackedScratch(side, side)
				words := (side*side + 63) / 64
				steps := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(g.Cells(), inputs[i%len(inputs)].Cells())
					res, err := SortPackedScratch(g, ps, 0, sc)
					if err != nil {
						b.Fatal(err)
					}
					steps += res.Steps
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps*words), "ns/wordstep")
			})
		}
	}
}
