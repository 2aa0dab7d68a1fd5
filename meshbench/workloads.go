package main

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/rng"
)

// Workload names, as passed to --workload.
const (
	permSweep      = "perm-sweep"
	zeroOneSweep   = "zeroone-sweep"
	serveMixed     = "serve-mixed"
	campaignFabric = "campaign-fabric"
)

// workloadNames lists every workload in documentation order.
var workloadNames = []string{permSweep, zeroOneSweep, serveMixed, campaignFabric}

// tailPct is each workload's declared latency tail percentile: the
// highest percentile that keeps at least minBeyond samples beyond it at
// the op count a 12-second run produces on a 2-CPU host. Fixing it per
// workload keeps latency_tail_ms comparable between runs whose op counts
// differ. campaign-fabric completes only 5-9 campaigns per run, too few
// for any percentile to have minBeyond samples beyond it, so its tail is
// the median.
var tailPct = map[string]float64{
	permSweep:      75,
	zeroOneSweep:   75,
	serveMixed:     99,
	campaignFabric: 50,
}

// Seed derivation tags: every generated seed is mix(workload seed, tag,
// ...), so two workloads (or two roles inside one) never share a stream.
const (
	tagPerm uint64 = iota + 1
	tagZeroOne
	tagServe
	tagCampaign
)

// mix folds vals into seed with splitmix64 finalizers. The result is
// never 0, the value mcbatch would silently resolve to seed 1.
func mix(seed uint64, vals ...uint64) uint64 {
	x := seed
	for _, v := range vals {
		x ^= v + 0x9e3779b97f4a7c15 + x<<6 + x>>2
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	if x == 0 {
		return 1
	}
	return x
}

// paperAlgs are the five algorithms of the paper, in paper order.
var paperAlgs = core.Algorithms()

// permSides and permTrials define the perm-sweep ladder. Trial counts are
// scaled so that each spec costs about 150 ms on two trial workers; a
// count never drops below 2, so both workers of a 2-CPU host have a trial,
// which is why snake-c and snake-b cost more at side 128.
var (
	permSides  = []int{32, 48, 64, 96, 128}
	permTrials = [5][5]int{ // [algorithm][side]
		{320, 80, 20, 6, 2},   // rm-rf
		{400, 104, 28, 8, 2},  // rm-cf
		{512, 150, 44, 12, 2}, // snake-a
		{216, 64, 18, 4, 2},   // snake-b
		{84, 24, 6, 2, 2},     // snake-c
	}
)

// permSweepSpecs returns one pass of the perm-sweep ladder.
func permSweepSpecs(seed uint64) []mcbatch.Spec {
	var out []mcbatch.Spec
	for si, side := range permSides {
		for ai, alg := range paperAlgs {
			out = append(out, mcbatch.Spec{
				Algorithm: alg, Rows: side, Cols: side,
				Trials: permTrials[ai][si],
				Seed:   mix(seed, tagPerm, uint64(len(out))),
			})
		}
	}
	return out
}

// zeroOneTrials defines the zeroone-sweep ladder: for each side, the trial
// counts each algorithm runs with. The counts span 1 to 1000 and include
// batches that leave most of a 64-lane slice empty (1, 4, 16, 100), which
// is where lane waste shows. Side 128 keeps one small batch per
// algorithm: a single slice there costs 0.4–1.2 s whatever its fill.
var zeroOneTrials = []struct {
	side   int
	trials [5][]int // [algorithm]
}{
	{32, [5][]int{{1, 1000}, {4, 100}, {16, 1000}, {64, 100}, {1, 1000}}},
	{64, [5][]int{{1, 100}, {4, 64}, {16, 100}, {1, 64}, {4, 16}}},
	{128, [5][]int{{4}, {1}, {16}, {1}, {4}}},
}

// zeroOneSweepSpecs returns one pass of the zeroone-sweep ladder.
func zeroOneSweepSpecs(seed uint64) []mcbatch.Spec {
	var out []mcbatch.Spec
	for _, row := range zeroOneTrials {
		for ai, alg := range paperAlgs {
			for _, t := range row.trials[ai] {
				out = append(out, mcbatch.Spec{
					Algorithm: alg, Rows: row.side, Cols: row.side,
					Trials: t, ZeroOne: true,
					Seed: mix(seed, tagZeroOne, uint64(len(out))),
				})
			}
		}
	}
	return out
}

// serve-mixed request mix. Sides are even: the row-major algorithms reject
// odd column counts by crashing the daemon today, which this benchmark
// does not exercise.
var (
	serveSides = []int{8, 12, 16, 24, 32}
	// serveRecent is how far back a repeat may reach into the client's
	// own fresh requests; with two clients the repeated specs always fit
	// the daemon's default 512-entry memory cache.
	serveRecent = 64
)

// serveReq is one request of a serve-mixed client.
type serveReq struct {
	Spec mcbatch.Spec
	// Repeat is the index, in the same client's sequence, of the earlier
	// fresh request this one repeats; -1 for a fresh request.
	Repeat int
}

// serveGen generates one client's deterministic request sequence. Three
// in four requests are fresh (a new seed, so a cache miss); one in four
// repeats one of the client's recent fresh requests, which a closed-loop
// client has already seen answered, so it is a memory-cache hit.
type serveGen struct {
	seed   uint64
	client int
	src    *rng.PCG64
	n      int
	fresh  []int // indices of fresh requests so far
	issued []serveReq
}

func newServeGen(seed uint64, client int) *serveGen {
	return &serveGen{seed: seed, client: client,
		src: rng.NewStream(mix(seed, tagServe), uint64(client))}
}

// next returns the client's next request.
func (g *serveGen) next() serveReq {
	i := g.n
	g.n++
	var req serveReq
	if len(g.fresh) > 0 && rng.Intn(g.src, 4) == 0 {
		recent := g.fresh[max(0, len(g.fresh)-serveRecent):]
		j := recent[rng.Intn(g.src, len(recent))]
		req = serveReq{Spec: g.issued[j].Spec, Repeat: j}
	} else {
		side := serveSides[rng.Intn(g.src, len(serveSides))]
		req = serveReq{Repeat: -1, Spec: mcbatch.Spec{
			Algorithm: paperAlgs[rng.Intn(g.src, len(paperAlgs))],
			Rows:      side, Cols: side,
			Trials:  1 + rng.Intn(g.src, 64),
			ZeroOne: rng.Intn(g.src, 3) == 0,
			Seed:    mix(g.seed, tagServe, uint64(g.client), uint64(i)),
		}}
		g.fresh = append(g.fresh, i)
	}
	g.issued = append(g.issued, req)
	return req
}

// campaign-fabric grid: 5 algorithms × 2 sides × 2 trial counts × 2 input
// classes = 40 cells. The 512-trial cells reach the daemon's default
// 256-trial fabric threshold and fan out to the peer; the 64-trial cells
// run locally.
var (
	campaignSides  = []int{16, 32}
	campaignTrials = []int{64, 512}
)

// campaignSpec returns the i-th campaign of a run; each has a fresh seed,
// so none of its cells is in the store yet.
func campaignSpec(seed uint64, i int) campaign.Spec {
	names := make([]string, len(paperAlgs))
	for k, a := range paperAlgs {
		names[k] = a.ShortName()
	}
	return campaign.Spec{
		Name:       fmt.Sprintf("meshbench-%d", i),
		Algorithms: names,
		Sides:      campaignSides,
		Trials:     campaignTrials,
		Workloads:  []string{campaign.WorkloadPerm, campaign.WorkloadZeroOne},
		Seed:       mix(seed, tagCampaign, uint64(i)),
	}
}

// combo is one distinct (algorithm, side, input class) a workload
// touches: the unit of schedule compilation and of the set-up warm-up.
type combo struct {
	alg     core.Algorithm
	side    int
	zeroOne bool
}

// combos lists the distinct combinations of a workload in first-seen
// order.
func combos(name string) []combo {
	var out []combo
	seen := make(map[combo]bool)
	add := func(c combo) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	switch name {
	case permSweep:
		for _, s := range permSweepSpecs(0) {
			add(combo{s.Algorithm, s.Rows, false})
		}
	case zeroOneSweep:
		for _, s := range zeroOneSweepSpecs(0) {
			add(combo{s.Algorithm, s.Rows, true})
		}
	case serveMixed:
		for _, side := range serveSides {
			for _, a := range paperAlgs {
				add(combo{a, side, false})
				add(combo{a, side, true})
			}
		}
	case campaignFabric:
		for _, side := range campaignSides {
			for _, a := range paperAlgs {
				add(combo{a, side, false})
				add(combo{a, side, true})
			}
		}
	}
	return out
}
