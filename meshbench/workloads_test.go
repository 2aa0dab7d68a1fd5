package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/mcbatch"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, gen := range []func(uint64) []mcbatch.Spec{permSweepSpecs, zeroOneSweepSpecs} {
		a, b := gen(42), gen(42)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed gave different ladders")
		}
		if reflect.DeepEqual(a, gen(43)) {
			t.Fatal("different seeds gave the same ladder")
		}
	}
	if !reflect.DeepEqual(campaignSpec(42, 3), campaignSpec(42, 3)) {
		t.Fatal("same seed gave different campaigns")
	}
	for c := 0; c < serveClients; c++ {
		g1, g2 := newServeGen(42, c), newServeGen(42, c)
		for i := 0; i < 2000; i++ {
			if r1, r2 := g1.next(), g2.next(); !reflect.DeepEqual(r1, r2) {
				t.Fatalf("client %d request %d differs under one seed: %+v vs %+v", c, i, r1, r2)
			}
		}
	}
}

// TestFreshNeverCollidesWithRepeats checks the serve-mixed cache design:
// every fresh request has a key no earlier request had (a guaranteed
// miss), and every repeat names a recent fresh request of its own client
// (a guaranteed memory-cache hit for a closed-loop client).
func TestFreshNeverCollidesWithRepeats(t *testing.T) {
	seen := make(map[mcbatch.Key]bool)
	repeats, total := 0, 0
	for c := 0; c < serveClients; c++ {
		g := newServeGen(7, c)
		var fresh []int
		keys := make(map[int]mcbatch.Key)
		for i := 0; i < 5000; i++ {
			r := g.next()
			total++
			k, err := r.Spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if r.Repeat < 0 {
				if seen[k] {
					t.Fatalf("client %d request %d: fresh spec collides with an earlier key", c, i)
				}
				seen[k] = true
				keys[i] = k
				fresh = append(fresh, i)
				continue
			}
			repeats++
			want, ok := keys[r.Repeat]
			if !ok || want != k {
				t.Fatalf("client %d request %d repeats %d, which is not one of its fresh requests", c, i, r.Repeat)
			}
			recent := fresh[max(0, len(fresh)-serveRecent):]
			if r.Repeat < recent[0] {
				t.Fatalf("client %d request %d repeats %d, older than the last %d fresh requests", c, i, r.Repeat, serveRecent)
			}
		}
	}
	if share := float64(repeats) / float64(total); share < 0.22 || share > 0.28 {
		t.Errorf("repeat share %.3f, want about 1/4", share)
	}
}

func TestLaddersStayInsideTheirDesign(t *testing.T) {
	for _, s := range append(permSweepSpecs(1), zeroOneSweepSpecs(1)...) {
		if s.Rows%2 != 0 || s.Trials < 1 || s.Trials > 1000 {
			t.Errorf("spec out of design: %+v", s)
		}
	}
	want := map[int]bool{1: true, 4: true, 16: true, 64: true, 100: true, 1000: true}
	for _, s := range zeroOneSweepSpecs(1) {
		delete(want, s.Trials)
	}
	if len(want) != 0 {
		t.Errorf("zeroone-sweep misses trial counts %v", want)
	}
	cells, err := campaignSpec(1, 0).Expand()
	if err != nil || len(cells) != 40 {
		t.Fatalf("campaign expands to %d cells (%v), want 40", len(cells), err)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end %+v\nwant %+v", b.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs from perLayerMetrics")
	}
}
