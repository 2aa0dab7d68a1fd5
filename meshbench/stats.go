package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// sorted: the smallest sample with at least q% of the samples at or below
// it. It returns NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rankOf(n, q)-1]
}

// rankOf is the 1-based nearest rank of the q-th percentile among n
// samples. The epsilon keeps a product such as 99.9% of 10000 from
// rounding up past its exact integer.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return min(max(k, 1), n)
}

// beyond counts the samples strictly above the q-th percentile's rank.
func beyond(n int, q float64) int { return n - rankOf(n, q) }

// tailLadder lists the percentiles the tail rule may report, highest
// first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// minBeyond is the number of samples a reported tail percentile must
// have above it.
const minBeyond = 10

// tailRule returns the highest percentile of tailLadder with at least
// minBeyond samples beyond it among n samples; ok is false when even the
// median has fewer.
func tailRule(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// median returns the median of xs (the mean of the middle pair for an
// even count), NaN for an empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencySummary is a latency sample reduced to the figures the
// benchmark reports.
type latencySummary struct {
	N int `json:"n"`
	// P50 is the median in milliseconds.
	P50 float64 `json:"p50_ms"`
	// TailPct is the workload's declared tail percentile and Tail its
	// value in milliseconds; TailBeyond counts the samples above it.
	TailPct    float64 `json:"tail_pct"`
	Tail       float64 `json:"tail_ms"`
	TailBeyond int     `json:"tail_beyond"`
	// RulePct is the highest percentile with at least minBeyond samples
	// beyond it (0 when the sample is too small for any) and Rule its
	// value.
	RulePct float64 `json:"rule_pct"`
	Rule    float64 `json:"rule_ms,omitempty"`
}

// summarize reduces latencies (in milliseconds) at the declared tail
// percentile tailPct.
func summarize(latMs []float64, tailPct float64) latencySummary {
	s := sortedCopy(latMs)
	out := latencySummary{
		N:          len(s),
		P50:        median(s),
		TailPct:    tailPct,
		Tail:       percentile(s, tailPct),
		TailBeyond: beyond(len(s), tailPct),
	}
	if q, ok := tailRule(len(s)); ok {
		out.RulePct, out.Rule = q, percentile(s, q)
	}
	return out
}
