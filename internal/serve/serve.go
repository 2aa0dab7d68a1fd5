// Package serve is the trial-serving daemon behind cmd/meshsortd: an HTTP
// service that turns the repository's batched Monte-Carlo core
// (internal/mcbatch) into an on-demand workload. It accepts trial-batch
// jobs over a JSON API, executes them on a bounded worker pool, and serves
// the paper statistics (E[steps], variances, swap/comparison moments) with
// three production-shaped properties layered on top:
//
//   - Content-addressed result cache: jobs are keyed by the canonical
//     mcbatch.Spec hash, which covers exactly the fields that determine
//     results. Identical deterministic jobs are answered from an LRU cache
//     with byte-identical payloads, and identical jobs already in flight
//     are deduplicated singleflight-style onto one execution. With a
//     durable store configured (Config.Store), the cache is layered:
//     the LRU answers first, misses read through to the store, and every
//     executed payload is persisted write-behind — results survive
//     restarts byte-for-byte.
//   - Resumable campaigns: POST /v1/campaigns declares a parameter grid
//     (internal/campaign) that runs in the background against the store;
//     a resubmission after a crash resumes by skipping stored cells, and
//     /v1/campaigns/{id}/export serves the grid as JSON or CSV.
//   - Bounded queue with backpressure: a configurable number of jobs run
//     concurrently, the queue holds a configurable backlog, and a full
//     queue answers 429 instead of buffering unboundedly. Every job runs
//     under a context deadline, and cancellation reaches into the trial
//     loop via mcbatch.RunCtx.
//   - Observability: /metrics in the Prometheus text format (no
//     dependencies), /healthz, and structured log/slog request logging.
//
// Shutdown is graceful: Drain stops intake (503), waits for queued and
// running jobs to finish, and leaves the registry and cache readable so
// pollers collect their results before the listener closes.
//
// The package deliberately contains no wall-clock reads outside clock.go
// (see the detrand note there) and no randomness at all: every result byte
// is a deterministic function of the submitted Spec.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/store"
)

// Config tunes the daemon. The zero value serves with sane defaults.
type Config struct {
	// Concurrency is the number of jobs executing simultaneously.
	// Default 2.
	Concurrency int
	// QueueDepth is the backlog of queued (not yet running) jobs before
	// submissions get 429. Default 64.
	QueueDepth int
	// TrialWorkers is the mcbatch worker-pool size inside each job.
	// Default GOMAXPROCS (results are identical for every value).
	TrialWorkers int
	// JobTimeout bounds one job's execution. Default 60s.
	JobTimeout time.Duration
	// CacheEntries bounds the result cache. Default 512.
	CacheEntries int
	// MaxJobs bounds the job registry; the oldest finished jobs are
	// evicted past it. Default 4096.
	MaxJobs int
	// LongPollMax caps one ?wait=1 status poll. Default 30s.
	LongPollMax time.Duration
	// Limits bounds a single job's size.
	Limits Limits
	// Store, when set, is the durable result store layered under the LRU
	// cache: submissions read through to it, executed payloads persist to
	// it write-behind, and campaigns require it. Nil serves memory-only.
	// The caller owns the store's lifecycle (meshsortd closes it after
	// the listener stops).
	Store *store.Store
	// CampaignConcurrency is the number of campaign cells in flight at
	// once. Default 1 — each cell's trial pool already uses the machine.
	CampaignConcurrency int
	// Logger receives request and job logs. Default slog.Default().
	Logger *slog.Logger
	// Fabric, when set, is the distributed-trial coordinator: jobs and
	// campaign cells with at least FabricMinTrials trials fan out across
	// its peer fleet instead of running on the local trial pool. Results
	// are bit-identical either way (the coordinator's contract), so the
	// cache and store are oblivious to where trials ran. The caller owns
	// the coordinator's lifecycle (meshsortd closes it at shutdown).
	Fabric *fabric.Coordinator
	// FabricMinTrials is the smallest job routed through the fabric;
	// smaller jobs stay local (the fan-out overhead would dominate).
	// Default 256.
	FabricMinTrials int

	// testGate, when set, makes every job block after entering the
	// Running state until the channel yields; tests use it to hold the
	// pool busy deterministically.
	testGate chan struct{}
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TrialWorkers <= 0 {
		c.TrialWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.LongPollMax <= 0 {
		c.LongPollMax = 30 * time.Second
	}
	if c.CampaignConcurrency <= 0 {
		c.CampaignConcurrency = 1
	}
	if c.FabricMinTrials <= 0 {
		c.FabricMinTrials = 256
	}
	c.Limits = c.Limits.withDefaults()
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the daemon: registry, queue, worker pool, cache, metrics.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics metrics
	cache   *resultCache
	// shardCache memoizes fabric shard responses by sub-Spec key. It is
	// deliberately a separate LRU from the job result cache: a shard
	// spanning a Spec's whole range has the same content-address key as
	// the job, but its cached bytes are a ShardResponse, not a
	// ResultPayload, so sharing one cache would serve the wrong encoding.
	shardCache *resultCache
	// fabricSem bounds in-flight shard executions to the job
	// concurrency, so remote coordinators share the same compute budget
	// as local jobs.
	fabricSem chan struct{}

	queue chan *Job

	mu       sync.Mutex
	draining bool            // guarded by mu
	nextID   int64           // guarded by mu
	jobs     map[string]*Job // guarded by mu
	// order is the submission order, for registry eviction. guarded by mu
	order []string
	// byKey indexes in-flight jobs for singleflight dedup. guarded by mu
	byKey map[mcbatch.Key]*Job
	// campaigns is the campaign registry, keyed by the content-addressed
	// campaign ID. guarded by mu
	campaigns map[string]*Campaign

	inflight   sync.WaitGroup // enqueued jobs not yet terminal
	campaignWG sync.WaitGroup // running campaign goroutines
	workers    sync.WaitGroup
	stopOnce   sync.Once
	stopCh     chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	// campaignCtx is cancelled at Drain/Close so campaign runners stop
	// between cells; an interrupted campaign resumes from the store on
	// resubmission after restart.
	campaignCtx    context.Context
	campaignCancel context.CancelFunc
}

// NewServer builds a server and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		cache:      newResultCache(cfg.CacheEntries),
		shardCache: newResultCache(cfg.CacheEntries),
		fabricSem:  make(chan struct{}, cfg.Concurrency),
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       make(map[string]*Job),
		byKey:      make(map[mcbatch.Key]*Job),
		campaigns:  make(map[string]*Campaign),
		stopCh:     make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.campaignCtx, s.campaignCancel = context.WithCancel(s.baseCtx)
	for w := 0; w < cfg.Concurrency; w++ {
		s.workers.Add(1)
		go s.workerLoop()
	}
	return s
}

func (s *Server) workerLoop() {
	defer s.workers.Done()
	for {
		select {
		case job := <-s.queue:
			s.runJob(job)
		case <-s.stopCh:
			return
		}
	}
}

func (s *Server) runJob(job *Job) {
	defer s.inflight.Done()
	job.setRunning()
	if s.cfg.testGate != nil {
		select {
		case <-s.cfg.testGate:
		case <-s.baseCtx.Done():
		}
	}
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()

	// The spec runs exactly as hashed: ZeroOne jobs draw mcbatch's
	// canonical half-0/half-1 workload (nil Gen), so they stay
	// content-addressable, and Workers is a result-neutral execution hint.
	spec := job.spec
	spec.Workers = s.cfg.TrialWorkers

	start := monoNow()
	b, kernelName, err := s.execBatch(ctx, spec)
	elapsed := monoSince(start)

	s.mu.Lock()
	delete(s.byKey, job.Key)
	s.mu.Unlock()

	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.metrics.jobsCanceled.Add(1)
		} else {
			s.metrics.jobsFailed.Add(1)
		}
		s.log.Warn("job failed", "id", job.ID, "key", job.Key.String(), "err", err)
		job.fail(err.Error())
		return
	}
	payload, err := report.BuildPayload(job.spec, job.Key, b)
	if err != nil {
		s.metrics.jobsFailed.Add(1)
		job.fail(err.Error())
		return
	}
	job.setExecution(kernelName, b.Shards)
	s.cache.put(job.Key, payload)
	s.metrics.jobsOK.Add(1)
	s.metrics.jobsByKernel.observe(kernelName)
	nsPerTrial := elapsed / int64(job.spec.Trials)
	s.metrics.trialNs.observe(nsPerTrial)
	s.log.Info("job done",
		"id", job.ID, "key", job.Key.String(),
		"algorithm", job.spec.Algorithm.ShortName(),
		"mesh", fmt.Sprintf("%dx%d", job.spec.Rows, job.spec.Cols),
		"trials", job.spec.Trials, "kernel", kernelName,
		"shards", b.Shards, "ns_per_trial", nsPerTrial)
	job.complete(payload)

	// Write-behind persistence: the waiter is already unblocked; the
	// store's fsync happens off the response path. A failure degrades to
	// compute-only (the result was still served) and is counted.
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(job.Key, payload); err != nil {
			s.metrics.storeErrors.Add(1)
			s.log.Warn("store put failed", "id", job.ID, "key", job.Key.String(), "err", err)
		} else {
			s.metrics.storePuts.Add(1)
		}
	}
}

// apiError is a client-visible failure with its HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// submitOutcome describes how a submission was satisfied.
type submitOutcome struct {
	job     *Job
	cached  bool // answered from the result cache
	deduped bool // attached to an identical in-flight job
}

// submit validates req, consults the cache and the singleflight index,
// and either enqueues a new job or returns the existing/cached one.
func (s *Server) submit(req JobRequest) (submitOutcome, *apiError) {
	spec, err := req.ToSpec(s.cfg.Limits)
	if err != nil {
		return submitOutcome{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	key, err := spec.Hash()
	if err != nil {
		return submitOutcome{}, &apiError{http.StatusBadRequest, err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return submitOutcome{}, &apiError{http.StatusServiceUnavailable, "server is draining"}
	}
	s.metrics.jobsSubmitted.Add(1)

	if payload, ok := s.cache.get(key); ok {
		s.metrics.cacheHitsMemory.Add(1)
		job := s.registerLocked(key, spec)
		job.markCached()
		job.complete(payload)
		return submitOutcome{job: job, cached: true}, nil
	}
	if existing, ok := s.byKey[key]; ok {
		s.metrics.jobsDeduped.Add(1)
		return submitOutcome{job: existing, deduped: true}, nil
	}
	// Read-through to the durable store: a payload persisted by an
	// earlier process (or a campaign) is served byte-identically and
	// promoted into the LRU. A store read error degrades to a miss.
	if s.cfg.Store != nil {
		payload, ok, err := s.cfg.Store.Get(key)
		if err != nil {
			s.metrics.storeErrors.Add(1)
			s.log.Warn("store get failed", "key", key.String(), "err", err)
		} else if ok {
			s.metrics.cacheHitsStore.Add(1)
			s.cache.put(key, payload)
			job := s.registerLocked(key, spec)
			job.markCached()
			job.complete(payload)
			return submitOutcome{job: job, cached: true}, nil
		}
	}

	job := s.registerLocked(key, spec)
	select {
	case s.queue <- job:
	default:
		s.metrics.jobsRejected.Add(1)
		s.unregisterLocked(job.ID)
		return submitOutcome{}, &apiError{http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued)", cap(s.queue))}
	}
	s.metrics.cacheMisses.Add(1)
	s.byKey[key] = job
	s.inflight.Add(1)
	return submitOutcome{job: job}, nil
}

// registerLocked creates a job in the registry; callers hold s.mu.
func (s *Server) registerLocked(key mcbatch.Key, spec mcbatch.Spec) *Job {
	s.nextID++
	job := newJob(fmt.Sprintf("j-%06d", s.nextID), key, spec)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictLocked()
	return job
}

func (s *Server) unregisterLocked(id string) {
	delete(s.jobs, id)
	if n := len(s.order); n > 0 && s.order[n-1] == id {
		s.order = s.order[:n-1]
	}
}

// evictLocked trims the oldest finished jobs past the registry bound.
// Live jobs block further eviction (they must stay pollable), so the
// registry can transiently exceed MaxJobs by the number of live jobs.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.MaxJobs && len(s.order) > 0 {
		id := s.order[0]
		if j, ok := s.jobs[id]; ok && !j.terminal() {
			return
		}
		s.order = s.order[1:]
		delete(s.jobs, id)
	}
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Drain performs the graceful-shutdown sequence: reject new submissions
// with 503, wait until every queued and running job reaches a terminal
// state (bounded by ctx), then stop the worker pool. Status and result
// endpoints keep serving throughout and after, so no finished result is
// dropped; the caller closes the listener afterwards.
// Campaigns are stopped, not drained: a grid can be hours of work, so
// Drain cancels the campaign context and the runners exit between cells,
// leaving the store positioned for a skip-ahead resume on resubmission.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.campaignCancel()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.campaignWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.workers.Wait()
	return nil
}

// Close shuts down immediately: running jobs are cancelled (they fail
// with the context error), then the pool is stopped. Cancelled jobs reach
// a terminal state promptly, so the unbounded waits cannot hang — Close
// needs no deadline context, and fabricating a root one here would hide
// that property.
func (s *Server) Close() {
	s.baseCancel() // also cancels campaignCtx, which derives from baseCtx
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
	s.campaignWG.Wait()
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.workers.Wait()
}

// Handler returns the daemon's HTTP surface, wrapped in request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/sort", s.handleSort)
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/export", s.handleCampaignExport)
	mux.HandleFunc("POST "+fabric.ShardPath, s.handleFabricShard)
	mux.HandleFunc("GET /v1/peers", s.handlePeers)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := monoNow()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("http",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "dur_ms", monoSince(start)/1e6)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	_, _ = w.Write(buf)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxRequestBody bounds a job-submission body; specs are tiny.
const maxRequestBody = 1 << 20

func decodeRequest(w http.ResponseWriter, r *http.Request) (JobRequest, bool) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return JobRequest{}, false
	}
	return req, true
}

func setOutcomeHeaders(w http.ResponseWriter, out submitOutcome) {
	if out.cached {
		w.Header().Set("X-Meshsort-Cache", "hit")
	} else {
		w.Header().Set("X-Meshsort-Cache", "miss")
	}
	if out.deduped {
		w.Header().Set("X-Meshsort-Dedup", "1")
	}
}

// submitResponse is the body of POST /v1/jobs.
type submitResponse struct {
	ID      string `json:"id"`
	Key     string `json:"key"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached,omitempty"`
	Deduped bool   `json:"deduped,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	out, apiErr := s.submit(req)
	if apiErr != nil {
		if apiErr.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, apiErr.status, apiErr.msg)
		return
	}
	state, _, _ := out.job.Snapshot()
	setOutcomeHeaders(w, out)
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:      out.job.ID,
		Key:     out.job.Key.String(),
		Status:  state.String(),
		Cached:  out.cached,
		Deduped: out.deduped,
	})
}

// statusResponse is the body of GET /v1/jobs/{id}. Kernel and Shards
// report the effective execution choice — what actually ran after
// auto-resolution and the parallelism split; a 0-1 job whose ragged tail
// ran packed beside full sliced slices reports sliced (mcbatch.Batch.Kernel)
// — and stay empty until the job has executed (cache-hit jobs never
// execute, so they report none).
type statusResponse struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Kernel string `json:"kernel,omitempty"`
	Shards int    `json:"shards,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job id")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.LongPollMax)
		select {
		case <-job.Done():
		case <-ctx.Done():
		}
		cancel()
	}
	state, errMsg, _ := job.Snapshot()
	kernel, shards := job.execution()
	writeJSON(w, http.StatusOK, statusResponse{
		ID: job.ID, Key: job.Key.String(), Status: state.String(),
		Kernel: kernel, Shards: shards, Error: errMsg,
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job id")
		return
	}
	state, errMsg, payload := job.Snapshot()
	switch state {
	case JobDone:
		if job.wasCached() {
			w.Header().Set("X-Meshsort-Cache", "hit")
		} else {
			w.Header().Set("X-Meshsort-Cache", "miss")
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(payload)
	case JobFailed:
		writeErr(w, http.StatusUnprocessableEntity, errMsg)
	default:
		writeErr(w, http.StatusNotFound, fmt.Sprintf("job %s is %s; result not ready", job.ID, state))
	}
}

// handleSort is the synchronous convenience: submit, wait, serve the
// payload in one round trip.
func (s *Server) handleSort(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	out, apiErr := s.submit(req)
	if apiErr != nil {
		if apiErr.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, apiErr.status, apiErr.msg)
		return
	}
	select {
	case <-out.job.Done():
	case <-r.Context().Done():
		writeErr(w, http.StatusRequestTimeout, "client went away before the job finished")
		return
	}
	state, errMsg, payload := out.job.Snapshot()
	if state == JobFailed {
		writeErr(w, http.StatusUnprocessableEntity, errMsg)
		return
	}
	setOutcomeHeaders(w, out)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(payload)
}

// algorithmInfo is one entry of GET /v1/algorithms.
type algorithmInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Order       string `json:"order"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	algs := core.AllAlgorithms()
	out := make([]algorithmInfo, 0, len(algs))
	for _, a := range algs {
		out = append(out, algorithmInfo{
			Name:        a.ShortName(),
			Description: a.String(),
			Order:       a.Order().String(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sample := promSample{
		queueDepth: len(s.queue), queueCap: cap(s.queue),
		cacheLen: s.cache.len(), cacheCap: s.cfg.CacheEntries,
	}
	if s.cfg.Store != nil {
		stats := s.cfg.Store.Stats()
		sample.storeStats = &stats
	}
	if s.cfg.Fabric != nil {
		stats := s.cfg.Fabric.Stats()
		sample.fabricStats = &stats
		sample.fabricPeers = s.cfg.Fabric.Peers()
	}
	s.metrics.writeProm(w, sample)
}
