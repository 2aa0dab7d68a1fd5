package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/mcbatch"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// env is one workload's running system: the in-process daemons on real
// loopback listeners, the benchmark's HTTP client, and the tracing hooks.
type env struct {
	workload string
	workdir  string
	traced   bool

	client    *http.Client
	transport *http.Transport

	daemon *daemon // serve-mixed's daemon, campaign-fabric's coordinator
	worker *daemon // campaign-fabric's fabric peer
	coord  *fabric.Coordinator

	// rec is the live span recorder; nil outside a traced phase. The
	// wrappers installed in traced runs read it on every request.
	rec atomic.Pointer[Recorder]
	// campaignOp is the span of the campaign in flight, the parent of
	// the coordinator's shard dispatches.
	campaignOp atomic.Pointer[active]

	// gens continue the serve-mixed clients' request sequences and
	// campaigns counts the campaigns submitted, across phases, so every
	// phase sends fresh work.
	gens      []*serveGen
	campaigns int

	cleanup []func()
}

// daemon is one meshsortd serving stack behind a loopback listener.
type daemon struct {
	url   string
	srv   *serve.Server
	store *store.Store
	hs    *http.Server
	done  chan error
}

// discardLogger formats log records like meshsortd's and drops them.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// startDaemon serves srv on a fresh loopback listener; role names its
// spans when the run is traced.
func (e *env) startDaemon(role string, srv *serve.Server, st *store.Store) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if e.traced {
		h = e.traceHandler(role, h)
	}
	d := &daemon{url: "http://" + ln.Addr().String(), srv: srv, store: st,
		hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, then the server, then the store.
func (d *daemon) close() error {
	err := d.hs.Close()
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Close()
	if d.store != nil {
		err = errors.Join(err, d.store.Close())
	}
	return err
}

// traceHandler records one span per request, joined to the client's
// trace through traceHeader.
func (e *env) traceHandler(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := e.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		trace, parent := parseTraceHeader(r.Header)
		sp := rec.Start(trace, parent, role+"."+routeLabel(r.URL.Path))
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// routeLabel names the API route of path for span names.
func routeLabel(path string) string {
	switch {
	case path == "/v1/sort":
		return "sort"
	case path == fabric.ShardPath:
		return "shard"
	case path == "/v1/campaigns":
		return "campaign.submit"
	case strings.HasPrefix(path, "/v1/campaigns/") && strings.HasSuffix(path, "/export"):
		return "campaign.export"
	case strings.HasPrefix(path, "/v1/campaigns/"):
		return "campaign.status"
	default:
		return strings.TrimPrefix(path, "/")
	}
}

// timingTransport is the coordinator's fabric client transport in traced
// runs: it records each shard dispatch from request to response-body
// close, under the campaign in flight, and passes the span to the worker.
type timingTransport struct {
	base http.RoundTripper
	e    *env
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := t.e.rec.Load()
	if rec == nil {
		return t.base.RoundTrip(req)
	}
	trace, parent := t.e.campaignOp.Load().ids()
	name := "fabric.rtt"
	if req.URL.Path != fabric.ShardPath {
		name = "fabric.probe"
	}
	sp := rec.Start(trace, parent, name)
	req = req.Clone(req.Context())
	setTraceHeader(req.Header, sp)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// endOnClose ends a span when the response body is closed.
type endOnClose struct {
	io.ReadCloser
	sp   *active
	once sync.Once
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.End)
	return err
}

// close tears the system down and removes its scratch directories.
func (e *env) close() error {
	var err error
	e.transport.CloseIdleConnections()
	if e.daemon != nil {
		err = errors.Join(err, e.daemon.close())
	}
	if e.coord != nil {
		e.coord.Close()
	}
	if e.worker != nil {
		err = errors.Join(err, e.worker.close())
	}
	for i := len(e.cleanup) - 1; i >= 0; i-- {
		e.cleanup[i]()
	}
	return err
}

// compileStats counts the schedule programs a traced set-up compiles on
// first touch and the time spent compiling them.
type compileStats struct {
	programs int
	ns       int64
}

// compilePrograms touches every compiled form the workload's combinations
// use — the comparator schedule, its span program (permutations) and its
// sliced and packed 0-1 programs — timing each first touch. It runs
// before any other work in a fresh process, so every touch compiles.
func compilePrograms(cs []combo) (compileStats, error) {
	var st compileStats
	seen := make(map[string]bool)
	touch := func(key string, f func() error) error {
		if seen[key] {
			return nil
		}
		seen[key] = true
		start := time.Now()
		err := f()
		st.ns += int64(time.Since(start))
		st.programs++
		return err
	}
	for _, c := range cs {
		name := c.alg.ShortName()
		k := fmt.Sprintf("%s/%d", name, c.side)
		err := touch("sched/"+k, func() error { _, err := sched.Cached(name, c.side, c.side); return err })
		if err != nil {
			return st, err
		}
		compiled, _ := sched.Cached(name, c.side, c.side) // compiled above
		if !c.zeroOne {
			err = touch("spans/"+k, func() error { sched.CachedSpans(compiled); return nil })
		} else {
			err = touch("sliced/"+k, func() error { _, err := zeroone.CachedSliced(name, c.side, c.side); return err })
			if err == nil {
				err = touch("packed/"+k, func() error { _, err := zeroone.CachedPacked(name, c.side, c.side); return err })
			}
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// nearSorted generates the combination's input one transposition away
// from its target order, so a warm-up trial compiles every cache the
// workload path uses and then finishes in a few steps.
func nearSorted(c combo) func(rng.Source, int) *grid.Grid {
	return func(rng.Source, int) *grid.Grid {
		o := c.alg.Order()
		g := workload.SortedGrid(c.side, c.side, o)
		n := g.Len()
		if c.zeroOne {
			for m := 0; m < n; m++ {
				g.SetFlat(g.RankFlat(o, m), b2i(m >= n/2))
			}
		}
		g.SwapFlat(g.RankFlat(o, n/2-1), g.RankFlat(o, n/2))
		return g
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// warmUp runs one near-sorted trial per combination through the public
// batch entry point, filling the schedule caches of every path the
// workload takes.
func warmUp(ctx context.Context, cs []combo) error {
	for _, c := range cs {
		_, err := mcbatch.RunCtx(ctx, mcbatch.Spec{
			Algorithm: c.alg, Rows: c.side, Cols: c.side, Trials: 1,
			ZeroOne: c.zeroOne, Gen: nearSorted(c),
		})
		if err != nil {
			return fmt.Errorf("warm-up %s %d: %w", c.alg.ShortName(), c.side, err)
		}
	}
	return nil
}

// setUp builds the workload's system and warms it: boot the daemons and
// open the store (server workloads), then the warm-up pass. A traced
// set-up first compiles the schedule programs explicitly and returns
// their cost.
func setUp(ctx context.Context, name, workdir string, traced bool) (*env, compileStats, error) {
	e := &env{workload: name, workdir: workdir, traced: traced,
		transport: http.DefaultTransport.(*http.Transport).Clone()}
	e.transport.MaxIdleConnsPerHost = 4
	e.client = &http.Client{Transport: e.transport}
	var cst compileStats
	cs := combos(name)
	if traced {
		var err error
		if cst, err = compilePrograms(cs); err != nil {
			return nil, cst, err
		}
	}
	if err := e.boot(); err != nil {
		_ = e.close()
		return nil, cst, err
	}
	if err := warmUp(ctx, cs); err != nil {
		_ = e.close()
		return nil, cst, err
	}
	if e.daemon != nil {
		// Open the benchmark's two client connections.
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, _, errs[i] = e.do(ctx, nil, http.MethodGet, e.daemon.url+"/healthz", nil)
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			_ = e.close()
			return nil, cst, err
		}
	}
	return e, cst, nil
}

// boot starts the daemons of the server workloads.
func (e *env) boot() error {
	switch e.workload {
	case serveMixed:
		st, err := e.openStore()
		if err != nil {
			return err
		}
		srv := serve.NewServer(serve.Config{Store: st, Logger: discardLogger()})
		if e.daemon, err = e.startDaemon("daemon", srv, st); err != nil {
			srv.Close()
			_ = st.Close()
			return err
		}
	case campaignFabric:
		wsrv := serve.NewServer(serve.Config{Logger: discardLogger()})
		var err error
		if e.worker, err = e.startDaemon("worker", wsrv, nil); err != nil {
			wsrv.Close()
			return err
		}
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		fabricTransport := rt.(*http.Transport)
		e.cleanup = append(e.cleanup, fabricTransport.CloseIdleConnections)
		if e.traced {
			rt = &timingTransport{base: rt, e: e}
		}
		e.coord = fabric.New(fabric.Config{
			Peers:  []string{e.worker.url},
			Client: &http.Client{Transport: rt},
			Logger: discardLogger(),
		})
		st, err := e.openStore()
		if err != nil {
			return err
		}
		srv := serve.NewServer(serve.Config{Store: st, Fabric: e.coord, Logger: discardLogger()})
		if e.daemon, err = e.startDaemon("coordinator", srv, st); err != nil {
			srv.Close()
			_ = st.Close()
			return err
		}
	}
	return nil
}

// openStore opens a daemon's store in a fresh scratch directory that
// close removes. It skips the fsync after each Put: on a shared virtual
// disk one fsync takes 0.1 to 8 ms depending on other tenants, and with
// it serve-mixed ran at 228-300 jobs/s against 380-418 without, so the
// disk's noise would hide every change to the code around it. The traced
// store.put_us metric times durable Puts, fsync included.
func (e *env) openStore() (*store.Store, error) {
	dir, err := os.MkdirTemp(e.workdir, "store-*")
	if err != nil {
		return nil, err
	}
	e.cleanup = append(e.cleanup, func() { _ = os.RemoveAll(dir) })
	return store.OpenOptions(dir, store.Options{NoSync: true})
}

// setupSamples is how many cold set-ups one run times: this process's
// own plus setupSamples-1 child processes, since the schedule caches are
// per process and only a fresh process sets up cold.
const setupSamples = 5

// childSetups times cold set-ups in child processes of this binary.
func childSetups(ctx context.Context, name, workdir string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		buf, err := exec.CommandContext(cctx, exe, "--setup-only", "--workload", name, "--workdir", workdir).Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
		v, err := strconv.ParseFloat(strings.TrimPrefix(lines[len(lines)-1], "setup_s="), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", buf, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// setupOnly is the child-process mode: one cold set-up, timed, torn down.
func setupOnly(ctx context.Context, name, workdir string) error {
	start := time.Now()
	e, _, err := setUp(ctx, name, workdir, false)
	if err != nil {
		return err
	}
	s := time.Since(start).Seconds()
	if err := e.close(); err != nil {
		return err
	}
	fmt.Printf("setup_s=%v\n", s)
	return nil
}
