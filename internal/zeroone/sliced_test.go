package zeroone

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestTrialSliceRoundTrip(t *testing.T) {
	src := rng.New(31)
	for _, shape := range []struct{ rows, cols int }{
		{1, 1}, {1, 7}, {9, 1}, {8, 8}, {5, 13},
	} {
		ts := NewTrialSlice(shape.rows, shape.cols)
		var inputs []*grid.Grid
		for lane := 0; lane < 64; lane++ {
			alpha := rng.Intn(src, shape.rows*shape.cols+1)
			g := workload.RandomZeroOne(src, shape.rows, shape.cols, alpha)
			if got := ts.AddGrid(g); got != lane {
				t.Fatalf("AddGrid returned lane %d, want %d", got, lane)
			}
			inputs = append(inputs, g)
		}
		if ts.Lanes() != 64 {
			t.Fatalf("Lanes = %d, want 64", ts.Lanes())
		}
		for lane, want := range inputs {
			if !ts.Extract(lane).Equal(want) {
				t.Fatalf("%dx%d lane %d: extract != input", shape.rows, shape.cols, lane)
			}
		}
		// Reset must clear every lane so the buffer is reusable.
		ts.Reset()
		if ts.Lanes() != 0 {
			t.Fatalf("Lanes after Reset = %d", ts.Lanes())
		}
		g := workload.RandomZeroOne(src, shape.rows, shape.cols, shape.rows*shape.cols/2)
		if ts.AddGrid(g); !ts.Extract(0).Equal(g) {
			t.Fatalf("%dx%d: lane 0 after Reset != input", shape.rows, shape.cols)
		}
	}
}

func TestTrialSliceRejectsNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddGrid accepted a non-0-1 grid")
		}
	}()
	NewTrialSlice(1, 2).AddGrid(grid.FromRows([][]int{{0, 2}}))
}

// TestCompileSlicedShape pins the compiled layout: each step's runs
// expand to exactly the schedule's comparators, the pairs are disjoint
// within a step, and they are ordered by lower flat cell (the
// memory-streaming guarantee).
func TestCompileSlicedShape(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.ByName(name, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		ss := CompileSliced(s)
		phases := sched.PhasesOf(s)
		if ss.Period() != len(phases) {
			t.Fatalf("%s: period %d != phases %d", name, ss.Period(), len(phases))
		}
		for i, st := range ss.steps {
			var pairs []sched.Comparator
			for _, r := range st.runs {
				for k := int32(0); k < r.count; k++ {
					lo := r.base + k*r.stride
					pairs = append(pairs, sched.Comparator{Lo: lo, Hi: lo + r.delta})
				}
			}
			if int64(len(pairs)) != st.comparisons || len(pairs) != len(phases[i]) {
				t.Errorf("%s step %d: %d pairs but comparisons=%d, schedule %d", name, i+1, len(pairs), st.comparisons, len(phases[i]))
			}
			want := map[sched.Comparator]bool{}
			for _, c := range phases[i] {
				want[c] = true
			}
			seen := map[int32]bool{}
			prev := int32(-1)
			for _, c := range pairs {
				if !want[c] {
					t.Fatalf("%s step %d: run pair %+v is not a schedule comparator", name, i+1, c)
				}
				if seen[c.Lo] || seen[c.Hi] {
					t.Fatalf("%s step %d: comparators not disjoint", name, i+1)
				}
				seen[c.Lo], seen[c.Hi] = true, true
				if low := pairLow(c); low < prev {
					t.Fatalf("%s step %d: pairs not ordered by lower cell", name, i+1)
				} else {
					prev = low
				}
			}
		}
	}
}

func TestCachedSliced(t *testing.T) {
	a, err := CachedSliced("snake-b", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedSliced("snake-b", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("CachedSliced rebuilt the schedule")
	}
	if _, err := CachedSliced("no-such-algorithm", 8, 8); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// The lockstep differential suite (sliced vs scalar vs packed, step-cap
// and ragged-lane coverage) lives in internal/kerneltest now: its
// Compare harness packs every 0-1 case of the shared matrix into trial
// slices and checks each lane against the independent reference. The
// tests below keep the package-private coverage: packing round-trips,
// compiled layout, caching, and scratch reuse.

// TestSortSlicedScratchReuse pins buffer pooling: running a second batch
// through a Reset slice must give the same results as a fresh slice.
func TestSortSlicedScratchReuse(t *testing.T) {
	src := rng.New(4242)
	ss, err := CachedSliced("snake-c", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrialSlice(8, 8)
	for round := 0; round < 3; round++ {
		inputs := make([]*grid.Grid, 9+round)
		for i := range inputs {
			inputs[i] = workload.HalfZeroOne(src, 8, 8)
		}
		ts.Reset()
		fresh := NewTrialSlice(8, 8)
		for _, g := range inputs {
			ts.AddGrid(g)
			fresh.AddGrid(g)
		}
		rReuse, _, err := SortSliced(ts, ss, 0)
		if err != nil {
			t.Fatal(err)
		}
		rFresh, _, err := SortSliced(fresh, ss, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := range rFresh {
			if rReuse[k] != rFresh[k] {
				t.Fatalf("round %d lane %d: reused %+v != fresh %+v", round, k, rReuse[k], rFresh[k])
			}
			if !ts.Extract(k).Equal(fresh.Extract(k)) {
				t.Fatalf("round %d lane %d: reused grid differs", round, k)
			}
		}
	}
}

func TestSortSlicedDimensionMismatch(t *testing.T) {
	ss, err := CachedSliced("snake-a", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SortSliced(NewTrialSlice(4, 6), ss, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSortSlicedEmpty(t *testing.T) {
	ss, err := CachedSliced("snake-a", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := SortSliced(NewTrialSlice(4, 4), ss, 0)
	if err != nil || errs != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v errs=%v err=%v", results, errs, err)
	}
}
