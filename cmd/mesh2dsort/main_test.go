package main

import (
	"testing"

	"repro/internal/grid"
)

func TestBuildInputKinds(t *testing.T) {
	for _, kind := range []string{"random", "zero-column", "smallest-column", "sorted", "reversed"} {
		g, err := buildInput(kind, 6, 1, grid.Snake)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.Rows() != 6 || g.Cols() != 6 {
			t.Fatalf("%s: dims %dx%d", kind, g.Rows(), g.Cols())
		}
	}
	if _, err := buildInput("bogus", 4, 1, grid.Snake); err == nil {
		t.Fatal("bogus input kind accepted")
	}
}

func TestBuildInputSortedRespectsOrder(t *testing.T) {
	g, err := buildInput("sorted", 4, 1, grid.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSorted(grid.RowMajor) {
		t.Fatal("sorted input not sorted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// run prints to stdout; here we only care that every documented flag
	// combination completes without error.
	cases := []struct {
		alg, input     string
		trace          bool
		expectError    bool
		side, maxSteps int
	}{
		{alg: "snake-a", input: "random", side: 8},
		{alg: "rm-rf", input: "zero-column", side: 8},
		{alg: "snake-c", input: "random", trace: true, side: 8},
		{alg: "shearsort", input: "reversed", side: 8},
		{alg: "nope", input: "random", side: 8, expectError: true},
		{alg: "snake-a", input: "nope", side: 8, expectError: true},
		{alg: "snake-a", input: "zero-column", trace: true, side: 8, expectError: true}, // trace needs a permutation
		{alg: "rm-rf-nowrap", input: "zero-column", side: 8, maxSteps: 100, expectError: true},
		{alg: "rm-rf", input: "random", side: 15, expectError: true}, // odd side: an error, not a panic
	}
	for _, c := range cases {
		err := run(runConfig{
			alg: c.alg, side: c.side, seed: 1, input: c.input,
			trace: c.trace, maxSteps: c.maxSteps,
		})
		if (err != nil) != c.expectError {
			t.Fatalf("run(%s,%s,trace=%v): err=%v, expectError=%v", c.alg, c.input, c.trace, err, c.expectError)
		}
	}
	// Snapshot printing path.
	if err := run(runConfig{alg: "rm-rf", side: 6, seed: 1, input: "zero-column", every: 4}); err != nil {
		t.Fatalf("every-snapshot run: %v", err)
	}
}
