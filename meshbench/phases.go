package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/store"
)

// op is one timed operation: a RunCtx call, an HTTP job, or a campaign
// from submit through export.
type op struct {
	spec   mcbatch.Spec   // sweeps and serve-mixed
	camp   *campaign.Spec // campaign-fabric
	kernel core.Kernel    // sweeps: the executor family the batch ran

	latNs  int64
	trials int
	units  int // cells for a campaign, 1 otherwise
	// payload is what the program answered: the encoded batch, the HTTP
	// body, or the campaign export.
	payload []byte
	err     error
	// cellSteps is Σ steps × rows × cols of the answered trials, filled
	// by the check.
	cellSteps int64

	// serve-mixed
	client, index, repeat int
	hit                   bool
	status                int

	// campaign-fabric
	executed int
	runNs    int64 // submit until the campaign reported done
	exportNs int64
}

// phase is one timed loop of a workload.
type phase struct {
	wallNs int64
	ops    []*op

	// serve-mixed and campaign-fabric: daemon /metrics around the loop,
	// and the queue depth sampled during traced loops.
	promBefore, promAfter map[string]float64
	queueDepth            []float64
	// The daemon's store and the coordinator's counters around the loop.
	storeBefore, storeAfter store.Stats
	fabBefore, fabAfter     fabric.Stats
}

// runPhase runs the workload's closed loop for at least seconds. Sweeps
// run whole passes of their ladder and campaigns whole campaigns, so
// every run weighs the specs alike.
func (e *env) runPhase(ctx context.Context, seed uint64, seconds float64) (*phase, error) {
	ph := &phase{}
	if e.daemon != nil {
		var err error
		if ph.promBefore, err = e.prom(ctx); err != nil {
			return nil, err
		}
		ph.storeBefore = e.daemon.store.Stats()
		if e.coord != nil {
			ph.fabBefore = e.coord.Stats()
		}
	}
	switch e.workload {
	case permSweep:
		e.runSweep(ctx, ph, permSweepSpecs(seed), seconds)
	case zeroOneSweep:
		e.runSweep(ctx, ph, zeroOneSweepSpecs(seed), seconds)
	case serveMixed:
		e.runServe(ctx, ph, seed, seconds)
	case campaignFabric:
		e.runCampaigns(ctx, ph, seed, seconds)
	}
	if e.daemon != nil {
		if e.workload == serveMixed {
			e.awaitWriteBehind(ctx, ph)
		}
		ph.storeAfter = e.daemon.store.Stats()
		var err error
		if ph.promAfter, err = e.prom(ctx); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// runSweep issues RunCtx back to back over whole passes of specs.
func (e *env) runSweep(ctx context.Context, ph *phase, specs []mcbatch.Spec, seconds float64) {
	rec := e.rec.Load()
	var batches []*mcbatch.Batch // encoded after the loop, untimed
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		for _, s := range specs {
			sp := rec.Start(0, 0, "op")
			t0 := time.Now()
			b, err := mcbatch.RunCtx(ctx, s)
			lat := time.Since(t0)
			sp.End()
			ph.ops = append(ph.ops, &op{spec: s, err: err, latNs: int64(lat), trials: s.Trials, units: 1})
			batches = append(batches, b)
		}
	}
	ph.wallNs = int64(time.Since(start))
	for i, o := range ph.ops {
		if o.err == nil {
			key, _ := o.spec.Hash() // RunCtx accepted the spec
			o.kernel = batches[i].Kernel
			o.payload, o.err = report.BuildPayload(o.spec, key, batches[i])
		}
	}
}

// do issues one HTTP request under a client span and reads the whole
// response.
func (e *env) do(ctx context.Context, parent *active, method, url string, body []byte) (int, http.Header, []byte, error) {
	trace, pid := parent.ids()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	sp := e.rec.Load().Start(trace, pid, "http."+routeLabel(req.URL.Path))
	defer sp.End()
	setTraceHeader(req.Header, sp)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// serveClients is the number of closed-loop serve-mixed clients.
const serveClients = 2

// runServe runs the serve-mixed clients against the daemon until the
// deadline. Each client continues its own request sequence across
// phases, so a later phase's fresh requests are still cache misses.
func (e *env) runServe(ctx context.Context, ph *phase, seed uint64, seconds float64) {
	rec := e.rec.Load()
	gens := e.serveGens(seed)
	stopSampler := e.sampleQueue(ctx, ph)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]*op, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := gens[c]
			for time.Now().Before(deadline) {
				idx := g.n
				req := g.next()
				o := &op{spec: req.Spec, client: c, index: idx, repeat: req.Repeat, trials: req.Spec.Trials, units: 1}
				body, _ := json.Marshal(jobRequest(req.Spec)) // plain struct
				sp := rec.Start(0, 0, "op")
				t0 := time.Now()
				status, hdr, resp, err := e.do(ctx, sp, http.MethodPost, e.daemon.url+"/v1/sort", body)
				o.latNs = int64(time.Since(t0))
				sp.End()
				o.status, o.payload, o.err = status, resp, err
				if err == nil && status != http.StatusOK {
					o.err = fmt.Errorf("POST /v1/sort: HTTP %d: %s", status, bytes.TrimSpace(resp))
				}
				if hdr != nil {
					o.hit = hdr.Get("X-Meshsort-Cache") == "hit"
				}
				perClient[c] = append(perClient[c], o)
			}
		}(c)
	}
	wg.Wait()
	ph.wallNs = int64(time.Since(start))
	stopSampler()
	for _, ops := range perClient {
		ph.ops = append(ph.ops, ops...)
	}
}

// serveGens returns the clients' request generators, created on first
// use and continued by later phases.
func (e *env) serveGens(seed uint64) []*serveGen {
	if e.gens == nil {
		for c := 0; c < serveClients; c++ {
			e.gens = append(e.gens, newServeGen(seed, c))
		}
	}
	return e.gens
}

// jobRequest is the wire form of a generated spec.
func jobRequest(s mcbatch.Spec) serve.JobRequest {
	return serve.JobRequest{Algorithm: s.Algorithm.ShortName(), Side: s.Rows,
		Trials: s.Trials, Seed: s.Seed, ZeroOne: s.ZeroOne}
}

// sampleQueue polls the daemon's queue depth every 100 ms during a
// traced phase; the returned function stops it and waits.
func (e *env) sampleQueue(ctx context.Context, ph *phase) func() {
	if e.rec.Load() == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if m, err := e.prom(ctx); err == nil {
					ph.queueDepth = append(ph.queueDepth, m["meshsortd_queue_depth"])
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}

// awaitWriteBehind waits, up to two seconds, until the daemon has
// persisted every executed job, so store counters compare exactly.
func (e *env) awaitWriteBehind(ctx context.Context, ph *phase) {
	for i := 0; i < 200; i++ {
		m, err := e.prom(ctx)
		if err != nil {
			return
		}
		ok := m[`meshsortd_jobs_completed_total{status="ok"}`] - ph.promBefore[`meshsortd_jobs_completed_total{status="ok"}`]
		puts := m["meshsortd_store_puts_total"] - ph.promBefore["meshsortd_store_puts_total"]
		errs := m["meshsortd_store_errors_total"] - ph.promBefore["meshsortd_store_errors_total"]
		if puts+errs >= ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// prom reads the daemon's /metrics into a map keyed by the sample name
// with its labels.
func (e *env) prom(ctx context.Context) (map[string]float64, error) {
	status, _, body, err := e.do(ctx, nil, http.MethodGet, e.daemon.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return parseProm(body), nil
}

func parseProm(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// campaignStatus is the body of the campaign status endpoint.
type campaignStatus struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Cells    int    `json:"cells"`
	Executed int    `json:"executed"`
	Error    string `json:"error"`
}

// runCampaigns submits whole campaigns back to back until seconds have
// passed; each waits for completion and fetches the JSON export.
func (e *env) runCampaigns(ctx context.Context, ph *phase, seed uint64, seconds float64) {
	rec := e.rec.Load()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		spec := campaignSpec(seed, e.campaigns)
		e.campaigns++
		o := &op{camp: &spec, units: len(paperAlgs) * len(campaignSides) * len(campaignTrials) * 2}
		for _, t := range campaignTrials {
			o.trials += t * len(paperAlgs) * len(campaignSides) * 2
		}
		sp := rec.Start(0, 0, "op")
		e.campaignOp.Store(sp)
		t0 := time.Now()
		o.err = e.oneCampaign(ctx, sp, spec, o, t0)
		o.latNs = int64(time.Since(t0))
		e.campaignOp.Store(nil)
		sp.End()
		ph.ops = append(ph.ops, o)
	}
	ph.wallNs = int64(time.Since(start))
	ph.fabAfter = e.coord.Stats()
}

func (e *env) oneCampaign(ctx context.Context, sp *active, spec campaign.Spec, o *op, t0 time.Time) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var st campaignStatus
	status, _, resp, err := e.do(ctx, sp, http.MethodPost, e.daemon.url+"/v1/campaigns", body)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("POST /v1/campaigns: HTTP %d: %s", status, bytes.TrimSpace(resp))
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return err
	}
	for st.Status == "running" {
		status, _, resp, err = e.do(ctx, sp, http.MethodGet, e.daemon.url+"/v1/campaigns/"+st.ID+"?wait=1", nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET campaign status: HTTP %d", status)
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			return err
		}
	}
	o.runNs = int64(time.Since(t0))
	o.executed = st.Executed
	if st.Status != "done" {
		return fmt.Errorf("campaign %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	te := time.Now()
	status, _, o.payload, err = e.do(ctx, sp, http.MethodGet, e.daemon.url+"/v1/campaigns/"+st.ID+"/export", nil)
	o.exportNs = int64(time.Since(te))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET campaign export: HTTP %d", status)
	}
	return nil
}

// checkSet is the deterministic subset of a workload's specs whose Σ steps
// every run reports: one ladder pass, the first 64 fresh requests of
// serve-mixed client 0, or the first campaign's cells. All of them run in
// every run, so two runs with one seed must report the same sum.
func checkSet(name string, seed uint64) []mcbatch.Spec {
	switch name {
	case permSweep:
		return permSweepSpecs(seed)
	case zeroOneSweep:
		return zeroOneSweepSpecs(seed)
	case serveMixed:
		var out []mcbatch.Spec
		g := newServeGen(seed, 0)
		for len(out) < 64 {
			if r := g.next(); r.Repeat < 0 {
				out = append(out, r.Spec)
			}
		}
		return out
	case campaignFabric:
		cells, _ := campaignSpec(seed, 0).Expand() // the grid is valid by construction
		out := make([]mcbatch.Spec, len(cells))
		for i, c := range cells {
			out[i] = c.Spec
		}
		return out
	}
	return nil
}

// checkResult is the outcome of the correctness check of a run.
type checkResult struct {
	stepsSum int64
	problems []string // the first few op failures
}

// check compares every answered op with its untimed reference and fills
// each op's cellSteps. Mismatches become op errors, so they count as
// failed ops.
func (e *env) check(ctx context.Context, seed uint64, phases ...*phase) (checkResult, error) {
	var res checkResult
	set := checkSet(e.workload, seed)
	specs := append([]mcbatch.Spec(nil), set...)
	for _, ph := range phases {
		for _, o := range ph.ops {
			if o.err != nil {
				continue
			}
			if o.camp != nil {
				cells, err := o.camp.Expand()
				if err != nil {
					return res, err
				}
				for _, c := range cells {
					specs = append(specs, c.Spec)
				}
			} else {
				specs = append(specs, o.spec)
			}
		}
	}
	refs, err := references(ctx, specs)
	if err != nil {
		return res, err
	}
	for _, s := range set {
		k, _ := s.Hash()
		res.stepsSum += refs[k].Steps
	}
	get := func(k mcbatch.Key) ([]byte, bool, error) {
		r, ok := refs[k]
		return r.Payload, ok, nil
	}
	first := make(map[[2]int][]byte) // (client, index) → first answer
	for _, ph := range phases {
		for _, o := range ph.ops {
			if o.err != nil {
				continue
			}
			if o.camp != nil {
				want, err := campaign.ExportJSON(*o.camp, get)
				if err != nil {
					return res, err
				}
				o.err = samePayload(o.payload, want)
				cells, _ := o.camp.Expand() // expanded above
				for _, c := range cells {
					o.cellSteps += refs[c.Key].CellSteps
				}
			} else {
				k, _ := o.spec.Hash()
				o.err = samePayload(o.payload, refs[k].Payload)
				o.cellSteps = refs[k].CellSteps
				if e.workload == serveMixed {
					if o.repeat < 0 {
						first[[2]int{o.client, o.index}] = o.payload
					} else if f, ok := first[[2]int{o.client, o.repeat}]; ok && o.err == nil {
						o.err = samePayload(o.payload, f)
					}
				}
			}
		}
	}
	for _, ph := range phases {
		for _, o := range ph.ops {
			if o.err != nil && len(res.problems) < 5 {
				res.problems = append(res.problems, o.err.Error())
			}
		}
	}
	return res, nil
}

// e2e is a phase reduced to the end-to-end metrics.
type e2e struct {
	SetupS        float64        `json:"setup_s"`
	TrialsPerS    float64        `json:"trials_per_s"`
	OpsPerS       float64        `json:"ops_per_s"`
	NsPerCellStep float64        `json:"ns_per_cell_step"`
	Latency       latencySummary `json:"latency"`
	PeakRSSMiB    float64        `json:"peak_rss_mb"`
	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	FailedRatio   float64        `json:"failed_ratio"`
}

// reduce computes the end-to-end metrics of a checked phase. A failed op
// adds an infinite latency: it misses every latency limit.
func reduce(ph *phase, tail float64) e2e {
	var trials, units, cellSteps float64
	lat := make([]float64, 0, len(ph.ops))
	var failed int
	for _, o := range ph.ops {
		if o.err != nil {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		trials += float64(o.trials)
		units += float64(o.units)
		cellSteps += float64(o.cellSteps)
		lat = append(lat, float64(o.latNs)/1e6)
	}
	wall := float64(ph.wallNs)
	out := e2e{
		TrialsPerS:    trials / (wall / 1e9),
		OpsPerS:       units / (wall / 1e9),
		NsPerCellStep: wall / cellSteps,
		Latency:       summarize(lat, tail),
		Attempted:     len(ph.ops),
		Failed:        failed,
	}
	if len(ph.ops) > 0 {
		out.FailedRatio = float64(failed) / float64(len(ph.ops))
	}
	return out
}

// kernelCounts tallies the executor families of a sweep phase's first
// pass, and the lanes its sliced batches used and ran.
func kernelCounts(ph *phase, passLen int) (counts map[core.Kernel]int, trialsSliced, slices int) {
	counts = make(map[core.Kernel]int)
	for _, o := range ph.ops[:min(passLen, len(ph.ops))] {
		if o.err != nil {
			continue
		}
		counts[o.kernel]++
		if o.kernel == core.KernelSliced {
			trialsSliced += o.spec.Trials
			slices += (o.spec.Trials + 63) / 64
		}
	}
	return counts, trialsSliced, slices
}
