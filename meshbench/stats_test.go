package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median leaves only 9 beyond
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		q, ok := tailRule(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailRule(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("tailRule(%d) = p%v leaves %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	lat := make([]float64, 200)
	for i := range lat {
		lat[i] = float64(200 - i) // 200 … 1, unsorted on purpose
	}
	s := summarize(lat, 75)
	if s.N != 200 || s.P50 != 100.5 {
		t.Errorf("n=%d p50=%v, want 200 and 100.5", s.N, s.P50)
	}
	if s.Tail != 150 || s.TailBeyond != 50 {
		t.Errorf("p75=%v with %d beyond, want 150 with 50", s.Tail, s.TailBeyond)
	}
	if s.RulePct != 90 || s.Rule != 180 {
		t.Errorf("rule p%v=%v, want p90=180", s.RulePct, s.Rule)
	}
	if s := summarize(nil, 75); s.N != 0 || !math.IsNaN(s.P50) {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestFailedOpsLandInTheTail(t *testing.T) {
	lat := []float64{1, 2, 3, math.Inf(1)}
	if p := percentile(sortedCopy(lat), 100); !math.IsInf(p, 1) {
		t.Errorf("max = %v, want +Inf", p)
	}
}
