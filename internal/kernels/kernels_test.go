package kernels

import (
	"testing"

	"repro/internal/core"
)

func TestRegistryShape(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("registry has %d entries, want 6", len(All()))
	}
	for _, e := range All() {
		if e.Name != core.KernelName(e.ID) {
			t.Errorf("entry %q: name != core.KernelName(%d) = %q", e.Name, e.ID, core.KernelName(e.ID))
		}
		if len(e.Classes) == 0 {
			t.Errorf("entry %q serves no class", e.Name)
		}
	}
	if r := Select(core.KernelAuto, Shape{Class: Permutation, Rows: 32, Cols: 32, Trials: 64, Cores: 1}); r.Kernel != core.KernelSpan {
		t.Fatalf("permutation default = %v, want span", r.Kernel)
	}
	if r := Select(core.KernelAuto, Shape{Class: ZeroOne, Rows: 32, Cols: 32, Trials: 64, Cores: 1}); r.Kernel != core.KernelSliced {
		t.Fatalf("zeroone default = %v, want sliced", r.Kernel)
	}
	for _, tc := range []struct {
		k    core.Kernel
		c    Class
		want bool
	}{
		{core.KernelSpan, Permutation, true},
		{core.KernelSpan, ZeroOne, false},
		{core.KernelSpanSharded, Permutation, true},
		{core.KernelSpanSharded, ZeroOne, false},
		{core.KernelThreshold, Permutation, true},
		{core.KernelThreshold, ZeroOne, false},
		{core.KernelSliced, ZeroOne, true},
		{core.KernelSliced, Permutation, false},
		{core.KernelPacked, ZeroOne, true},
		{core.KernelGeneric, Permutation, true},
		{core.KernelGeneric, ZeroOne, true},
		{core.KernelAuto, Permutation, false},
	} {
		if got := Supports(tc.k, tc.c); got != tc.want {
			t.Errorf("Supports(%s, %s) = %v, want %v", core.KernelName(tc.k), tc.c, got, tc.want)
		}
	}
	order := Eligible(Permutation)
	if len(order) != 4 || order[0].ID != core.KernelSpanSharded || order[1].ID != core.KernelSpan || order[3].ID != core.KernelThreshold {
		t.Fatalf("permutation eligibility order wrong: %+v", order)
	}
}

// TestShardedGate pins the sharded span executor's selection contract:
// small meshes always route to the serial span kernel, and a big mesh
// routes to the sharded executor exactly when AutoShards finds a
// multi-shard split for the given core count.
func TestShardedGate(t *testing.T) {
	small := Shape{Class: Permutation, Rows: 16, Cols: 16, Trials: 8, Cores: 64}
	if r := Select(core.KernelAuto, small); r.Kernel != core.KernelSpan {
		t.Fatalf("small-mesh route = %v, want span", r.Kernel)
	}
	for _, cores := range []int{1, 2, 8} {
		want := core.KernelSpan
		if core.AutoShards(1024, 1024, cores) > 1 {
			want = core.KernelSpanSharded
		}
		big := Shape{Class: Permutation, Rows: 1024, Cols: 1024, Trials: 1, Cores: cores}
		if r := Select(core.KernelAuto, big); r != (Route{Kernel: want}) {
			t.Fatalf("big-mesh route on %d cores = %+v, want %v", cores, r, want)
		}
	}
	if core.AutoShards(1024, 1024, 1) > 1 || core.AutoShards(1024, 1024, 8) < 2 {
		t.Fatal("AutoShards no longer separates 1 core from 8 at side 1024; the gate test covers one branch only")
	}
}

// TestSelectRule pins the 0-1 routing rule at its boundaries: the
// crossover of each side (one below it splits, at it the tail stays a
// sliced block), exactly one slice, an empty batch, the cap, and a
// rectangular mesh, whose side is ⌊√(R·C)⌋.
func TestSelectRule(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, crossover int
	}{
		{1, 1, 0}, {4, 4, 3}, {8, 8, 6}, {9, 8, 6}, {12, 12, 9}, {16, 16, 12},
		{20, 20, 15}, {24, 24, 18}, {25, 25, 18}, {128, 128, 18}, {2, 64, 8}, {64, 2, 8},
	} {
		if got := PackedCrossover(tc.rows, tc.cols); got != tc.crossover {
			t.Errorf("PackedCrossover(%d, %d) = %d, want %d", tc.rows, tc.cols, got, tc.crossover)
		}
	}

	sliced := func(tail int) Route { return Route{Kernel: core.KernelSliced, PackedTail: tail} }
	packed := Route{Kernel: core.KernelPacked}
	for _, tc := range []struct {
		rows, cols, trials int
		want               Route
	}{
		{8, 8, 0, sliced(0)},
		{8, 8, 1, packed},
		{8, 8, 5, packed},
		{8, 8, 6, sliced(0)},
		{8, 8, 63, sliced(0)},
		{8, 8, 64, sliced(0)},
		{8, 8, 65, sliced(1)},
		{8, 8, 69, sliced(5)},
		{8, 8, 70, sliced(0)},
		{8, 8, 128, sliced(0)},
		{16, 16, 11, packed},
		{16, 16, 12, sliced(0)},
		{16, 16, 75, sliced(11)},
		{16, 16, 76, sliced(0)},
		{128, 128, 1, packed},
		{128, 128, 17, packed},
		{128, 128, 18, sliced(0)},
		{128, 128, 1000, sliced(0)}, // tail 40
		{128, 128, 1041, sliced(17)},
		{2, 64, 7, packed},
		{2, 64, 8, sliced(0)},
		{9, 8, 200, sliced(0)}, // tail 8
		{9, 8, 197, sliced(5)},
	} {
		s := Shape{Class: ZeroOne, Rows: tc.rows, Cols: tc.cols, Trials: tc.trials, Cores: 2}
		if got := Select(core.KernelAuto, s); got != tc.want {
			t.Errorf("Select(auto, %dx%d, %d trials) = %+v, want %+v", tc.rows, tc.cols, tc.trials, got, tc.want)
		}
	}
}

// TestPinnedHintsNeverSplit pins that a hint serving the batch's class
// runs every trial on that executor — no packed tail, whatever the trial
// count — and that a hint of the other class is treated as Auto.
func TestPinnedHintsNeverSplit(t *testing.T) {
	for _, k := range []core.Kernel{core.KernelSliced, core.KernelPacked, core.KernelGeneric} {
		for _, trials := range []int{0, 1, 7, 63, 64, 65, 71, 200} {
			s := Shape{Class: ZeroOne, Rows: 8, Cols: 8, Trials: trials, Cores: 2}
			if got := Select(k, s); got != (Route{Kernel: k}) {
				t.Errorf("Select(%s, %d trials) = %+v, want the pinned kernel alone", core.KernelName(k), trials, got)
			}
		}
	}
	s := Shape{Class: ZeroOne, Rows: 8, Cols: 8, Trials: 65, Cores: 2}
	if got, want := Select(core.KernelSpan, s), Select(core.KernelAuto, s); got != want {
		t.Errorf("cross-class hint routed %+v, want the auto route %+v", got, want)
	}
}
