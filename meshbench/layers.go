package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// probeSpecs is the fixed spec list the traced run times layer by layer:
// the workload's own specs, with trial counts capped so the probe costs a
// fraction of a run. A capped spec runs the first trials of the original,
// on the same inputs.
func probeSpecs(name string, seed uint64) []mcbatch.Spec {
	out := checkSet(name, seed)
	for i := range out {
		t := out[i].Trials
		switch name {
		case permSweep:
			t = max(min(t, 2), t/4)
		case zeroOneSweep:
			t = min(t, 256)
		case campaignFabric:
			t = min(t, 64)
		}
		out[i].Trials = t
	}
	return out
}

// layerTotals accumulates the isolated per-layer timings over the probe.
type layerTotals struct {
	trials                          float64
	genNs                           float64
	engineNs, engineSteps, engineT  float64
	engineAllocs                    float64
	zeroNs, zeroSteps               float64
	slicedTrials, slices            int
	run1Ns, runNNs, run1Allocs      float64
	kernelNs                        float64
	encodeNs, payloadBytes, encodes float64
	kernels                         map[core.Kernel]int
	payloads                        map[mcbatch.Key][]byte
}

func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// probeLayers times, for every probe spec: RunCtx on one worker and on
// GOMAXPROCS workers, the payload encoder, and the input generator and
// the kernel the batch resolved to, separately, on one thread.
func probeLayers(ctx context.Context, probe []mcbatch.Spec) (*layerTotals, error) {
	lt := &layerTotals{kernels: make(map[core.Kernel]int), payloads: make(map[mcbatch.Key][]byte)}
	for _, s := range probe {
		s1 := s
		s1.Workers = 1
		// RunCtx on one worker runs before and after the separately timed
		// generator and kernel, and the two times are averaged, so a
		// slow drift in host speed cancels out of the overhead difference.
		run1 := func() error {
			m0 := mallocs()
			t0 := time.Now()
			if _, err := mcbatch.RunCtx(ctx, s1); err != nil {
				return err
			}
			lt.run1Ns += float64(time.Since(t0)) / 2
			lt.run1Allocs += (mallocs() - m0) / 2
			return nil
		}
		if err := run1(); err != nil {
			return nil, err
		}

		t0 := time.Now()
		b, err := mcbatch.RunCtx(ctx, s)
		if err != nil {
			return nil, err
		}
		lt.runNNs += float64(time.Since(t0))
		lt.kernels[b.Kernel]++
		lt.trials += float64(s.Trials)

		key, _ := s.Hash() // RunCtx accepted the spec
		t0 = time.Now()
		payload, err := report.BuildPayload(s, key, b)
		if err != nil {
			return nil, err
		}
		lt.encodeNs += float64(time.Since(t0))
		lt.payloadBytes += float64(len(payload))
		lt.encodes++
		lt.payloads[key] = payload

		if err := lt.kernelLayer(s, b.Kernel); err != nil {
			return nil, err
		}
		if err := run1(); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// kernelLayer replays the spec's trials as mcbatch does on one worker —
// each input generated into one reused buffer — timing the generator and
// the kernel the batch resolved to separately. Kernel allocations are
// counted per call.
func (lt *layerTotals) kernelLayer(s mcbatch.Spec, kernel core.Kernel) error {
	seed := mcbatch.CanonicalSeed(s.Seed)
	stream := mcbatch.DefaultStream(s.Algorithm, s.Rows)
	into := workload.RandomPermutationInto
	if s.ZeroOne {
		into = workload.HalfZeroOneInto
	}
	buf := grid.New(s.Rows, s.Cols)
	gen := func(i int) {
		t0 := time.Now()
		into(rng.NewStream(seed, stream(i)), buf)
		lt.genNs += float64(time.Since(t0))
	}
	var steps, kernNs float64
	switch kernel {
	case core.KernelSliced:
		ss, err := zeroone.CachedSliced(s.Algorithm.ShortName(), s.Rows, s.Cols)
		if err != nil {
			return err
		}
		ts := zeroone.NewTrialSlice(s.Rows, s.Cols)
		for lo := 0; lo < s.Trials; lo += 64 {
			t0 := time.Now()
			ts.Reset()
			kernNs += float64(time.Since(t0))
			for i := lo; i < min(lo+64, s.Trials); i++ {
				gen(i)
				t0 = time.Now()
				ts.AddGrid(buf)
				kernNs += float64(time.Since(t0))
			}
			t0 = time.Now()
			res, _, err := zeroone.SortSliced(ts, ss, 0)
			kernNs += float64(time.Since(t0))
			if err != nil {
				return err
			}
			for _, r := range res {
				steps += float64(r.Steps)
			}
			lt.slices++
		}
		lt.slicedTrials += s.Trials
	case core.KernelPacked:
		ps, err := zeroone.CachedPacked(s.Algorithm.ShortName(), s.Rows, s.Cols)
		if err != nil {
			return err
		}
		for i := 0; i < s.Trials; i++ {
			gen(i)
			t0 := time.Now()
			r, err := zeroone.SortPacked(buf, ps, 0)
			kernNs += float64(time.Since(t0))
			if err != nil {
				return err
			}
			steps += float64(r.Steps)
		}
	default:
		sch := s.Algorithm.Schedule(s.Rows, s.Cols)
		opts := engine.Options{Kernel: kernel}
		for i := 0; i < s.Trials; i++ {
			gen(i)
			t0 := time.Now()
			r, err := engine.Run(buf, sch, opts)
			kernNs += float64(time.Since(t0))
			if err != nil {
				return err
			}
			steps += float64(r.Steps)
		}
		if !s.ZeroOne {
			// Count allocations on a few untimed replays: reading the
			// exact count stops the world, so it stays out of the timing.
			k := min(s.Trials, 4)
			var allocs float64
			for i := 0; i < k; i++ {
				into(rng.NewStream(seed, stream(i)), buf)
				m0 := mallocs()
				if _, err := engine.Run(buf, sch, opts); err != nil {
					return err
				}
				allocs += mallocs() - m0
			}
			lt.engineAllocs += allocs / float64(k) * float64(s.Trials)
			lt.engineNs += kernNs
			lt.engineSteps += steps * float64(s.Rows*s.Cols)
			lt.engineT += float64(s.Trials)
			lt.kernelNs += kernNs
			return nil
		}
	}
	lt.kernelNs += kernNs
	lt.zeroNs += kernNs
	lt.zeroSteps += steps * float64(s.Rows*s.Cols)
	return nil
}

// handlerLayer times serve's handler in process (a fresh daemon without a
// store, through a response recorder) against RunCtx of the same fresh
// specs, returning the handler's extra µs per job.
func handlerLayer(ctx context.Context, probe []mcbatch.Spec) (float64, error) {
	srv := serve.NewServer(serve.Config{Logger: discardLogger()})
	defer srv.Close()
	h := srv.Handler()
	var hNs, rNs float64
	for _, s := range probe {
		body, _ := json.Marshal(jobRequest(s)) // plain struct
		req := httptest.NewRequest(http.MethodPost, "/v1/sort", bytes.NewReader(body)).WithContext(ctx)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		hNs += float64(time.Since(t0))
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process /v1/sort: HTTP %d: %s", rr.Code, rr.Body.Bytes())
		}
		t0 = time.Now()
		if _, err := mcbatch.RunCtx(ctx, s); err != nil {
			return 0, err
		}
		rNs += float64(time.Since(t0))
	}
	return (hNs - rNs) / float64(len(probe)) / 1e3, nil
}

// storeLayer times Put and then Get of the payloads on a benchmark-owned
// store, in µs per call.
func storeLayer(workdir string, payloads map[mcbatch.Key][]byte) (putUs, getUs float64, err error) {
	dir, err := os.MkdirTemp(workdir, "probe-store-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var putNs, getNs float64
	for k, p := range payloads {
		t0 := time.Now()
		if err := st.Put(k, p); err != nil {
			return 0, 0, err
		}
		putNs += float64(time.Since(t0))
	}
	for k, p := range payloads {
		t0 := time.Now()
		got, ok, err := st.Get(k)
		getNs += float64(time.Since(t0))
		if err != nil || !ok || !bytes.Equal(got, p) {
			return 0, 0, fmt.Errorf("store probe: Get returned ok=%v err=%v for a stored key", ok, err)
		}
	}
	n := float64(len(payloads))
	return putNs / n / 1e3, getNs / n / 1e3, nil
}

// spanStats pairs client-side spans with their server-side children:
// the mean duration of parents named parent, of their children named
// child, and of parent minus child, in ms.
func spanStats(spans []Span, parent, child string) (parentMs, childMs, gapMs float64) {
	kids := make(map[uint64]Span)
	for _, s := range spans {
		if s.Name == child {
			kids[s.Parent] = s
		}
	}
	var pn, cn, gn float64
	for _, s := range spans {
		switch s.Name {
		case parent:
			d := float64(s.End-s.Start) / 1e6
			parentMs += d
			pn++
			if k, ok := kids[s.ID]; ok {
				gapMs += d - float64(k.End-k.Start)/1e6
				gn++
			}
		case child:
			childMs += float64(s.End-s.Start) / 1e6
			cn++
		}
	}
	return safeDiv(parentMs, pn), safeDiv(childMs, cn), safeDiv(gapMs, gn)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureLayers fills the per-layer metrics of a traced run from the
// set-up's compile stats, the untraced (a) and traced (b) halves, the
// spans of b, and the isolated probe.
func (e *env) measureLayers(ctx context.Context, seed uint64, cst compileStats, a, b e2e, tb *phase, spans []Span, steps int64) (map[string]float64, error) {
	m := make(map[string]float64) // a layer left unset reads 0
	m["sched.compile_ms"] = float64(cst.ns) / 1e6
	m["sched.programs"] = float64(cst.programs)
	m["check.steps_sum"] = float64(steps)
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_latency_p50_ms"] = b.Latency.P50 - a.Latency.P50
	m["trace.overhead_trials_per_s"] = b.TrialsPerS - a.TrialsPerS

	probe := probeSpecs(e.workload, seed)
	lt, err := probeLayers(ctx, probe)
	if err != nil {
		return nil, err
	}
	P := float64(runtime.GOMAXPROCS(0))
	m["workload.gen_ns_per_trial"] = lt.genNs / lt.trials
	m["engine.ns_per_cell_step"] = safeDiv(lt.engineNs, lt.engineSteps)
	m["engine.busy_s"] = lt.engineNs / 1e9
	m["engine.allocs_per_trial"] = safeDiv(lt.engineAllocs, lt.engineT)
	m["zeroone.ns_per_cell_step"] = safeDiv(lt.zeroNs, lt.zeroSteps)
	m["zeroone.busy_s"] = lt.zeroNs / 1e9
	m["mcbatch.ns_per_trial"] = lt.run1Ns / lt.trials
	m["mcbatch.overhead_ns_per_trial"] = (lt.run1Ns - lt.genNs - lt.kernelNs) / lt.trials
	m["mcbatch.allocs_per_trial"] = lt.run1Allocs / lt.trials
	m["mcbatch.worker_efficiency"] = lt.run1Ns / (P * lt.runNNs)
	m["report.encode_us_per_job"] = lt.encodeNs / lt.encodes / 1e3
	m["report.payload_bytes"] = lt.payloadBytes / lt.encodes

	// Executor families and lane fill: a sweep's first traced pass (the
	// batches the workload really ran), else the probe's batches.
	kernels, slicedTrials, slices := lt.kernels, lt.slicedTrials, lt.slices
	if e.daemon == nil {
		passLen := len(checkSet(e.workload, seed))
		kernels, slicedTrials, slices = kernelCounts(tb, passLen)
	}
	m["mcbatch.batches_span"] = float64(kernels[core.KernelSpan] + kernels[core.KernelSpanSharded])
	m["mcbatch.batches_sliced"] = float64(kernels[core.KernelSliced])
	m["mcbatch.batches_packed"] = float64(kernels[core.KernelPacked])
	m["mcbatch.batches_generic"] = float64(kernels[core.KernelGeneric])
	m["zeroone.lane_fill_ratio"] = safeDiv(float64(slicedTrials), 64*float64(slices))

	switch e.workload {
	case serveMixed:
		if err := e.serveLayers(ctx, m, probe, lt, tb, spans); err != nil {
			return nil, err
		}
	case campaignFabric:
		if err := e.campaignLayers(m, lt, tb, spans); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (e *env) serveLayers(ctx context.Context, m map[string]float64, probe []mcbatch.Spec, lt *layerTotals, tb *phase, spans []Span) error {
	hUs, err := handlerLayer(ctx, probe)
	if err != nil {
		return err
	}
	m["serve.handler_us_per_job"] = hUs
	_, _, gap := spanStats(spans, "http.sort", "daemon.sort")
	m["serve.http_us_per_job"] = gap * 1e3
	m["serve.queue_depth_mean"] = mean(tb.queueDepth)
	var ok, hits, rejected, misses float64
	for _, o := range tb.ops {
		if o.status == http.StatusTooManyRequests {
			rejected++
		}
		if o.err != nil {
			continue
		}
		ok++
		if o.hit {
			hits++
		} else {
			misses++
		}
	}
	m["serve.cache_hit_ratio"] = safeDiv(hits, ok)
	m["serve.rejected"] = rejected
	storePerOp(m, tb, misses)
	put, get, err := storeLayer(e.workdir, lt.payloads)
	if err != nil {
		return err
	}
	m["store.put_us"], m["store.get_us"] = put, get
	return nil
}

func (e *env) campaignLayers(m map[string]float64, lt *layerTotals, tb *phase, spans []Span) error {
	var n, cellMs, exportMs, executed float64
	for _, o := range tb.ops {
		if o.err != nil {
			continue
		}
		n++
		cellMs += float64(o.runNs) / 1e6 / float64(o.units)
		exportMs += float64(o.exportNs) / 1e6
		executed += float64(o.executed)
	}
	m["campaign.cell_ms"] = safeDiv(cellMs, n)
	m["campaign.export_ms"] = safeDiv(exportMs, n)
	m["campaign.cells_executed"] = safeDiv(executed, n)
	storePerOp(m, tb, n)
	rtt, exec, overhead := spanStats(spans, "fabric.rtt", "worker.shard")
	m["fabric.shard_rtt_ms"], m["fabric.shard_exec_ms"], m["fabric.dispatch_overhead_ms"] = rtt, exec, overhead
	remote := float64(tb.fabAfter.ShardsRemote - tb.fabBefore.ShardsRemote)
	local := float64(tb.fabAfter.ShardsLocal - tb.fabBefore.ShardsLocal)
	m["fabric.shards_remote"] = safeDiv(remote, n)
	m["fabric.shards_local"] = safeDiv(local, n)
	m["fabric.retries"] = safeDiv(float64(tb.fabAfter.Retries-tb.fabBefore.Retries), n)
	m["fabric.remote_ratio"] = safeDiv(remote, remote+local)
	put, get, err := storeLayer(e.workdir, lt.payloads)
	if err != nil {
		return err
	}
	m["store.put_us"], m["store.get_us"] = put, get
	return nil
}

// storePerOp sets the daemon store's appends and log growth over the
// traced phase, per executed job or per campaign.
func storePerOp(m map[string]float64, tb *phase, ops float64) {
	m["store.puts"] = safeDiv(float64(tb.storeAfter.Puts-tb.storeBefore.Puts), ops)
	m["store.log_bytes"] = safeDiv(float64(tb.storeAfter.LogBytes-tb.storeBefore.LogBytes), ops)
}

// promDelta returns a reader of /metrics differences across a phase.
func promDelta(ph *phase) func(name string) float64 {
	return func(name string) float64 { return ph.promAfter[name] - ph.promBefore[name] }
}
