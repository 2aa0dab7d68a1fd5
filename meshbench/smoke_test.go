package main

import (
	"context"
	"testing"
)

// TestServerWorkloadsEndToEnd runs the server workloads briefly, untraced
// and traced, and requires every answer to pass its check.
func TestServerWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and runs full campaigns")
	}
	ctx := context.Background()
	for _, name := range []string{serveMixed, campaignFabric} {
		for _, traced := range []bool{false, true} {
			e, cst, err := setUp(ctx, name, t.TempDir(), traced)
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				if cst.programs == 0 {
					t.Errorf("%s: no programs compiled", name)
				}
				e.rec.Store(NewRecorder())
			}
			ph, err := e.runPhase(ctx, 5, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			chk, err := e.check(ctx, 5, ph)
			if err != nil {
				t.Fatal(err)
			}
			if problems := e.crossCheck(ph); len(problems) > 0 {
				t.Errorf("%s: %v", name, problems)
			}
			if err := e.close(); err != nil {
				t.Fatal(err)
			}
			r := reduce(ph, tailPct[name])
			if r.Failed != 0 || r.Attempted == 0 || chk.stepsSum <= 0 {
				t.Errorf("%s traced=%v: %d of %d failed (%v), steps %d", name, traced, r.Failed, r.Attempted, chk.problems, chk.stepsSum)
			}
		}
	}
}
