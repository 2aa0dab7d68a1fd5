package fabric

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/report"
)

// newWorker starts an in-test worker node: a ShardPath handler that
// executes shards with mcbatch plus a /healthz. failing, when non-nil,
// makes every shard request 500 while it holds true (the dead-peer
// switch).
func newWorker(t *testing.T, failing *atomic.Bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if failing != nil && failing.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(ShardPath, func(w http.ResponseWriter, r *http.Request) {
		if failing != nil && failing.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec, err := req.ToSpec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key, err := spec.Hash()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b, err := mcbatch.RunCtx(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(BuildShardResponse(key.String(), b))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	c := New(cfg)
	c.sleep = func(context.Context, time.Duration) error { return nil } // no real backoff pauses in tests
	t.Cleanup(c.Close)
	return c
}

var testSpec = mcbatch.Spec{
	Algorithm: core.SnakeA,
	Rows:      8, Cols: 8,
	Trials: 384,
	Seed:   42,
}

// requireIdentical asserts got is bit-identical to the single-node run
// of spec: same trial list, same Steps accumulator bits, same payload
// bytes under the same content-address key.
func requireIdentical(t *testing.T, spec mcbatch.Spec, got *mcbatch.Batch) {
	t.Helper()
	want, err := mcbatch.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	if !reflect.DeepEqual(got.Trials, want.Trials) {
		t.Fatalf("distributed trial list diverges from single-node run")
	}
	gn, gmean, gm2, glo, ghi := got.Steps.State()
	wn, wmean, wm2, wlo, whi := want.Steps.State()
	if gn != wn || math.Float64bits(gmean) != math.Float64bits(wmean) ||
		math.Float64bits(gm2) != math.Float64bits(wm2) ||
		math.Float64bits(glo) != math.Float64bits(wlo) ||
		math.Float64bits(ghi) != math.Float64bits(whi) {
		t.Fatalf("merged Steps accumulator differs in bits: got (%d %x %x) want (%d %x %x)",
			gn, math.Float64bits(gmean), math.Float64bits(gm2),
			wn, math.Float64bits(wmean), math.Float64bits(wm2))
	}
	key, err := spec.Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	gotJSON, err := report.BuildPayload(spec, key, got)
	if err != nil {
		t.Fatalf("payload(distributed): %v", err)
	}
	wantJSON, err := report.BuildPayload(spec, key, want)
	if err != nil {
		t.Fatalf("payload(single-node): %v", err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("payload bytes diverge:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if cap(gotJSON) != len(gotJSON) || cap(wantJSON) != len(wantJSON) {
		t.Fatalf("payloads carry spare capacity: cap %d/%d for len %d/%d",
			cap(gotJSON), cap(wantJSON), len(gotJSON), len(wantJSON))
	}
}

func TestRunMatchesSingleNode(t *testing.T) {
	for _, peers := range []int{1, 2, 3} {
		var addrs []string
		for i := 0; i < peers; i++ {
			addrs = append(addrs, newWorker(t, nil).URL)
		}
		c := newTestCoordinator(t, Config{Peers: addrs, ShardTrials: 64})
		b, rep, err := c.RunReport(context.Background(), testSpec)
		if err != nil {
			t.Fatalf("%d peers: %v", peers, err)
		}
		if rep == nil || len(rep.Shards) != 6 {
			t.Fatalf("%d peers: want 6 shards in report, got %+v", peers, rep)
		}
		requireIdentical(t, testSpec, b)
		if st := c.Stats(); st.ShardsRemote != 6 || st.ShardsLocal != 0 {
			t.Fatalf("%d peers: stats %+v, want 6 remote shards", peers, st)
		}
	}
}

func TestRunZeroOneMatchesSingleNode(t *testing.T) {
	spec := testSpec
	spec.ZeroOne = true
	spec.Trials = 200 // ragged final shard: 64+64+64+8
	c := newTestCoordinator(t, Config{Peers: []string{newWorker(t, nil).URL}, ShardTrials: 64})
	b, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, spec, b)
}

func TestRunRequeuesFromDeadPeer(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	dead := newWorker(t, &failing)
	live := newWorker(t, nil)
	c := newTestCoordinator(t, Config{Peers: []string{dead.URL, live.URL}, ShardTrials: 64})
	b, rep, err := c.RunReport(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, testSpec, b)
	retries := 0
	for _, sh := range rep.Shards {
		retries += sh.Attempts
		if sh.Local {
			t.Fatalf("shard %+v fell back locally; want requeue onto the live peer", sh)
		}
		if sh.Peer != live.URL {
			t.Fatalf("shard %+v served by %s, want the live peer", sh, sh.Peer)
		}
	}
	if retries == 0 {
		t.Fatal("no shard recorded a retry although one peer was dead")
	}
	for _, ps := range c.Peers() {
		if ps.Addr == dead.URL && ps.Up {
			t.Fatal("dead peer still marked up after failed dispatches")
		}
	}
}

func TestRunFallsBackLocallyWhenFleetDown(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	dead := newWorker(t, &failing)
	c := newTestCoordinator(t, Config{Peers: []string{dead.URL}, ShardTrials: 64, MaxAttempts: 2})
	b, rep, err := c.RunReport(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, testSpec, b)
	for _, sh := range rep.Shards {
		if !sh.Local {
			t.Fatalf("shard %+v claims remote success although the fleet is down", sh)
		}
	}
	if st := c.Stats(); st.ShardsLocal != 6 {
		t.Fatalf("stats %+v, want 6 local shards", st)
	}
}

func TestProbeRevivesRecoveredPeer(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	worker := newWorker(t, &failing)
	c := newTestCoordinator(t, Config{Peers: []string{worker.URL}, ShardTrials: 64, MaxAttempts: 1})
	if _, err := c.Run(context.Background(), testSpec); err != nil {
		t.Fatal(err) // runs locally; also marks the peer down
	}
	if c.Peers()[0].Up {
		t.Fatal("peer still up after failed dispatch")
	}
	failing.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for !c.Peers()[0].Up {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never revived the recovered peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	b, rep, err := c.RunReport(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, testSpec, b)
	for _, sh := range rep.Shards {
		if sh.Local {
			t.Fatalf("shard %+v ran locally after the peer recovered", sh)
		}
	}
}

func TestRunWholeLocalWithoutPeers(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	b, rep, err := c.RunReport(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("local run produced a shard report: %+v", rep)
	}
	requireIdentical(t, testSpec, b)
	if st := c.Stats(); st.RunsLocal != 1 {
		t.Fatalf("stats %+v, want one local run", st)
	}
}

func TestDecodeRejectsTamperedResponse(t *testing.T) {
	spec := testSpec
	spec.Trials, spec.TrialOffset = 64, 128
	key, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mcbatch.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	good := BuildShardResponse(key.String(), b)
	if _, _, err := good.Decode(key.String(), spec.Trials); err != nil {
		t.Fatalf("pristine response rejected: %v", err)
	}
	wrongKey := good
	if _, _, err := wrongKey.Decode("deadbeef", spec.Trials); err == nil {
		t.Fatal("key mismatch accepted")
	}
	tampered := good
	tampered.Steps = append([]int(nil), good.Steps...)
	tampered.Steps[7]++
	if _, _, err := tampered.Decode(key.String(), spec.Trials); err == nil {
		t.Fatal("tampered tallies accepted: partial cross-check missed the edit")
	}
	short := good
	short.Steps = good.Steps[:32]
	if _, _, err := short.Decode(key.String(), spec.Trials); err == nil {
		t.Fatal("truncated tallies accepted")
	}
}

func TestShardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := newTestCoordinator(t, Config{Peers: []string{newWorker(t, nil).URL}, ShardTrials: 64})
	if _, err := c.Run(ctx, testSpec); err == nil {
		t.Fatal("cancelled run reported success")
	}
}
