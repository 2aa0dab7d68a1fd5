// Command meshbench is the repository's benchmark. It drives one of four
// closed-loop workloads through the program's public entry points — the
// batch engine (mcbatch.RunCtx), in-process meshsortd daemons on real
// loopback listeners, and a fabric coordinator with one loopback peer —
// checks every answer against an untimed reference, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads, the metrics and how
// to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are printed by untraced runs, for every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"trials_per_s", "trials/s", "higher"},
	{"ops_per_s", "ops/s", "higher"},
	{"ns_per_cell_step", "ns", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayerMetrics are printed by traced runs, for every workload; a
// layer the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"sched.compile_ms", "ms", "lower"},
	{"sched.programs", "count", "lower"},
	{"workload.gen_ns_per_trial", "ns", "lower"},
	{"engine.ns_per_cell_step", "ns", "lower"},
	{"engine.busy_s", "s", "lower"},
	{"engine.allocs_per_trial", "count", "lower"},
	{"zeroone.ns_per_cell_step", "ns", "lower"},
	{"zeroone.busy_s", "s", "lower"},
	{"zeroone.lane_fill_ratio", "ratio", "higher"},
	{"mcbatch.ns_per_trial", "ns", "lower"},
	{"mcbatch.overhead_ns_per_trial", "ns", "lower"},
	{"mcbatch.allocs_per_trial", "count", "lower"},
	{"mcbatch.worker_efficiency", "ratio", "higher"},
	{"mcbatch.batches_span", "count", "higher"},
	{"mcbatch.batches_sliced", "count", "higher"},
	{"mcbatch.batches_packed", "count", "higher"},
	{"mcbatch.batches_generic", "count", "lower"},
	{"report.encode_us_per_job", "us", "lower"},
	{"report.payload_bytes", "bytes", "lower"},
	{"serve.handler_us_per_job", "us", "lower"},
	{"serve.http_us_per_job", "us", "lower"},
	{"serve.queue_depth_mean", "jobs", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.puts", "count", "lower"},
	{"store.log_bytes", "bytes", "lower"},
	{"campaign.cell_ms", "ms", "lower"},
	{"campaign.export_ms", "ms", "lower"},
	{"campaign.cells_executed", "count", "higher"},
	{"fabric.shard_rtt_ms", "ms", "lower"},
	{"fabric.shard_exec_ms", "ms", "lower"},
	{"fabric.dispatch_overhead_ms", "ms", "lower"},
	{"fabric.shards_remote", "count", "higher"},
	{"fabric.shards_local", "count", "lower"},
	{"fabric.retries", "count", "lower"},
	{"fabric.remote_ratio", "ratio", "higher"},
	{"check.steps_sum", "count", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_latency_p50_ms", "ms", "lower"},
	{"trace.overhead_trials_per_s", "trials/s", "higher"},
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	workdir   string
	setupOnly bool
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed loop runs, at least")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch stores and span files")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one cold set-up and exit (used for set-up samples)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := tailPct[o.workload]; !ok {
		return o, fmt.Errorf("--workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	if o.setupOnly {
		return setupOnly(ctx, o.workload, o.workdir)
	}
	host := hostInfo(o)
	if o.trace == 1 {
		return runTraced(ctx, o, host)
	}
	return runUntraced(ctx, o, host)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, o options, host map[string]any) error {
	setups, err := childSetups(ctx, o.workload, o.workdir, setupSamples-1)
	if err != nil {
		return err
	}
	start := time.Now()
	e, _, err := setUp(ctx, o.workload, o.workdir, false)
	if err != nil {
		return err
	}
	setups = append(setups, time.Since(start).Seconds())
	ph, err := e.runPhase(ctx, o.seed, o.seconds)
	if err != nil {
		_ = e.close()
		return err
	}
	rss := peakRSSMiB()
	chk, err := e.check(ctx, o.seed, ph)
	if err == nil {
		chk.problems = append(chk.problems, e.crossCheck(ph)...)
	}
	err = errors.Join(err, e.close())
	if err != nil {
		return err
	}
	r := reduce(ph, tailPct[o.workload])
	r.SetupS, r.PeakRSSMiB = median(setups), rss

	metrics := map[string]float64{
		"setup_s":          r.SetupS,
		"trials_per_s":     r.TrialsPerS,
		"ops_per_s":        r.OpsPerS,
		"ns_per_cell_step": r.NsPerCellStep,
		"latency_p50_ms":   r.Latency.P50,
		"latency_tail_ms":  r.Latency.Tail,
		"peak_rss_mb":      r.PeakRSSMiB,
	}
	printRecord(map[string]any{
		"host": host, "workload": o.workload, "seed": o.seed, "trace": 0,
		"setup_samples_s": setups, "e2e": r, "steps_sum": chk.stepsSum, "problems": chk.problems,
	})
	printTable(endToEndMetrics, metrics)
	fmt.Printf("latency: n=%d p50=%.3fms p%g=%.3fms (%d samples beyond); rule p%g=%.3fms; failed_ratio=%g\n",
		r.Latency.N, r.Latency.P50, r.Latency.TailPct, r.Latency.Tail, r.Latency.TailBeyond,
		r.Latency.RulePct, r.Latency.Rule, r.FailedRatio)
	return printResult(len(chk.problems) == 0 && r.Failed == 0, r.Attempted, r.Failed, endToEndMetrics, metrics)
}

// runTraced runs half the time untraced and half traced, then the
// isolated per-layer probe, and prints the per-layer metrics.
func runTraced(ctx context.Context, o options, host map[string]any) error {
	e, cst, err := setUp(ctx, o.workload, o.workdir, true)
	if err != nil {
		return err
	}
	pa, err := e.runPhase(ctx, o.seed, o.seconds/2)
	if err != nil {
		_ = e.close()
		return err
	}
	rec := NewRecorder()
	e.rec.Store(rec)
	pb, err := e.runPhase(ctx, o.seed, o.seconds/2)
	e.rec.Store(nil)
	if err != nil {
		_ = e.close()
		return err
	}
	chk, err := e.check(ctx, o.seed, pa, pb)
	if err == nil {
		chk.problems = append(chk.problems, e.crossCheck(pa)...)
		chk.problems = append(chk.problems, e.crossCheck(pb)...)
	}
	var metrics map[string]float64
	a, b := reduce(pa, tailPct[o.workload]), reduce(pb, tailPct[o.workload])
	spans := rec.Spans()
	if err == nil {
		metrics, err = e.measureLayers(ctx, o.seed, cst, a, b, pb, spans, chk.stepsSum)
	}
	if err = errors.Join(err, e.close()); err != nil {
		return err
	}
	spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := rec.WriteFile(spanFile); err != nil {
		return err
	}
	self := selfTimes(spans)
	printRecord(map[string]any{
		"host": host, "workload": o.workload, "seed": o.seed, "trace": 1,
		"untraced": a, "traced": b, "steps_sum": chk.stepsSum, "self_times": self,
		"span_file": spanFile, "problems": chk.problems,
	})
	printSelfTimes(self)
	printTable(perLayerMetrics, metrics)
	return printResult(len(chk.problems) == 0 && a.Failed+b.Failed == 0,
		a.Attempted+b.Attempted, a.Failed+b.Failed, perLayerMetrics, metrics)
}

// crossCheck compares the cache hits the clients saw in response headers
// with the daemon's own /metrics counters over the phase.
func (e *env) crossCheck(ph *phase) []string {
	if e.workload != serveMixed {
		return nil
	}
	var hits float64
	for _, o := range ph.ops {
		if o.status == 200 && o.hit {
			hits++
		}
	}
	d := promDelta(ph)
	served := d(`meshsortd_cache_hits_total{layer="memory"}`) + d(`meshsortd_cache_hits_total{layer="store"}`)
	if hits != served {
		return []string{fmt.Sprintf("cache hits: %v in response headers, %v in /metrics", hits, served)}
	}
	return nil
}

// printRecord prints the run's full record, host and inputs included, as
// one JSON line.
func printRecord(rec map[string]any) {
	buf, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshbench: record:", err)
		return
	}
	fmt.Printf("record %s\n", buf)
}

func printTable(defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-32s %16.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
}

// printResult prints the final result line. A metric that could not be
// measured (NaN or infinite) is not valid JSON, so it fails the run.
func printResult(correct bool, attempted, failed int, defs []metricDef, m map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s could not be measured (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// hostInfo records the host and build every result was measured on, so
// numbers from different hosts are never compared silently.
func hostInfo(o options) map[string]any {
	h := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seconds":    o.seconds,
	}
	commit, modified := "unknown (not built from a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h["goamd64"] = s.Value
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	h["commit"] = commit
	if modified != "" {
		h["commit_modified"] = modified
	}
	return h
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
