// Package server exposes the experiment harness over HTTP: clients
// enqueue batches of scenarios, poll for results by content key, and
// render any of the paper's tables/figures on demand, in text, JSON, or
// CSV.
//
// v1 API (all JSON unless noted; wire types and the error envelope are
// defined once, in internal/client):
//
//	GET  /v1/version              API version, store format, max cores, auth mode
//	POST /v1/scenarios            {"scenarios":[sim.Scenario...]} -> 202 {"scenarios":[{key,status,...}]}
//	GET  /v1/scenarios/{key}      poll one scenario; per-core results embedded when done
//	POST /v1/sweeps               body: a spec document (internal/spec); expand, run, render
//	                              (?format=json|csv|text, ?tables=id,... to select tables;
//	                              Accept: text/event-stream streams per-scenario progress over SSE)
//	GET  /v1/experiments          list experiment ids
//	GET  /v1/experiments/{name}   render a table/figure (?format=json|csv|text); its
//	                              scenarios run as jobs, like a sweep's
//	GET  /v1/store/stats          persistent-store traffic counters
//	GET  /metrics                 Prometheus text exposition (no key required)
//	GET  /healthz                 liveness (plain "ok"; no key required)
//	POST /v1/lease, /v1/heartbeat, /v1/complete; GET /v1/cluster
//	                              the coordinator's lease protocol (internal/dispatch),
//	                              served only when the executor is a coordinator
//
// A single simulation is a one-core scenario ({"Cores":[cfg]}); every
// submission runs through one submit path, one job table, one key space
// and one store. Every non-2xx response is the versioned JSON error
// envelope {"error":{"code","message","retryable"}}; a request that
// matches no route, or the wrong method on a known one, gets not_found.
//
// Auth: with an API key configured, every request bar /healthz,
// /v1/version and /metrics must carry "Authorization: Bearer <key>",
// the lease routes included; the key is compared in constant time.
// Accepted jobs wait in one FIFO (internal/dispatch.Queue), bounded by
// Config.MaxQueue (503 + Retry-After past it), so a large sweep delays
// a small submit that follows it.
// Simulations are executed asynchronously by a pluggable
// internal/dispatch executor — a fixed local worker pool by default,
// or a dispatch.Coordinator leasing jobs to remote workers — and
// duplicate keys (within a batch, across batches, or across restarts
// via the persistent store) never simulate twice.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/report"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/store"
)

// Job states, in lifecycle order (defined in internal/client; aliased
// so existing callers keep reading naturally).
const (
	StatusQueued  = client.StatusQueued
	StatusRunning = client.StatusRunning
	StatusDone    = client.StatusDone
	StatusFailed  = client.StatusFailed
)

// ScenarioStatus is the v1 job status, defined in internal/client.
type ScenarioStatus = client.ScenarioStatus

// shedRetryAfter is the Retry-After hint of a shed submission: the
// backlog has to drain before a retry can be taken.
const shedRetryAfter = 10 * time.Second

// Config parameterizes a Server.
type Config struct {
	// Scale is the simulation scale every submitted config is pinned to
	// (the content key is derived from the pinned form, so a quick-scale
	// and a full-scale server address disjoint result spaces).
	Scale harness.Scale
	// ScaleName labels reports ("quick", "full").
	ScaleName string
	// Workers sizes the simulation pool (values below 1 mean 1).
	Workers int
	// Store, when non-nil, persists results across restarts: the job
	// table reads it before enqueueing a key it does not track, and
	// puts each result once, when its job completes on either
	// executor. Any store.Backend works: the on-disk store, or a
	// decorator around it.
	Store store.Backend
	// MaxQueue bounds accepted jobs that are not yet running; past it
	// submissions shed with 503 + Retry-After. 0 means unlimited.
	MaxQueue int
	// MaxBatch bounds scenarios per submission (default 1024);
	// oversized batches are rejected with 400 before any validation.
	MaxBatch int
	// APIKey, when set, must arrive as "Authorization: Bearer <key>" on
	// every route but /healthz, /v1/version and /metrics. Empty turns
	// auth off.
	APIKey string
	// Logger receives structured request/lifecycle logs (default:
	// discard).
	Logger *slog.Logger
	// NewExecutor, when non-nil, builds the execution backend from the
	// server's runner (which only sizes it) and its job-table sink
	// (cluster mode passes a dispatch.Coordinator constructor here).
	// Nil builds the local worker pool — the classic single-node path.
	// Either way the backend runs behind the server's FIFO; a
	// *dispatch.Coordinator's lease routes are served from Handler,
	// behind the API key.
	NewExecutor func(r *harness.Runner, sink dispatch.Sink) dispatch.Executor
	// ClusterStats, when non-nil, feeds coordinator lease counters
	// into /metrics (cluster mode only).
	ClusterStats func() dispatch.CoordinatorStats
}

// job tracks one submitted scenario through the pool.
type job struct {
	key string
	sc  sim.Scenario // pinned to the server scale

	// done closes when the job reaches a terminal state (done or
	// failed); synchronous waiters (the sweep handler) select on it.
	done chan struct{}

	mu     sync.Mutex
	status string
	result sim.ScenarioResult
	err    string
	// wire is the compact JSON of the job's ScenarioStatus, kept once
	// the job is terminal. finish is first-wins, so a terminal job never
	// changes and these bytes never go stale.
	wire []byte
}

// newJob builds a queued job for a pinned scenario.
func newJob(key string, sc sim.Scenario) *job {
	return &job{key: key, sc: sc, status: StatusQueued, done: make(chan struct{})}
}

// finish moves the job to a terminal state exactly once; redundant
// completions (a stale cluster worker pushing after a requeue) leave
// the first outcome in place.
func (j *job) finish(status string, res sim.ScenarioResult, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone || j.status == StatusFailed {
		return
	}
	j.status = status
	j.result = res
	j.err = msg
	close(j.done)
}

// scenarioJSON is the compact encoding of the job's /v1/scenarios view,
// the bytes every submit echo and poll of the job serve. A terminal
// job's encoding is made once and kept; a queued or running job is
// encoded afresh on every call.
func (j *job) scenarioJSON() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wire != nil {
		return j.wire, nil
	}
	st := ScenarioStatus{
		Key:    j.key,
		Status: j.status,
		Cores:  len(j.sc.Cores),
		Error:  j.err,
	}
	for _, cfg := range j.sc.Cores {
		st.Workloads = append(st.Workloads, cfg.Workload)
		st.Mechanisms = append(st.Mechanisms, string(cfg.Mechanism))
	}
	if j.status == StatusDone {
		st.Result = &j.result
	}
	b, err := json.Marshal(st)
	if err == nil && (j.status == StatusDone || j.status == StatusFailed) {
		j.wire = b
	}
	return b, err
}

// Server is the HTTP simulation service.
type Server struct {
	runner       *harness.Runner
	st           store.Backend
	scale        harness.Scale
	scaleName    string
	maxBatch     int
	queue        *dispatch.Queue
	exec         dispatch.Executor // the queue's inner executor
	apiKey       string
	log          *slog.Logger
	clusterStats func() dispatch.CoordinatorStats
	httpStats    httpMetrics

	mu   sync.Mutex
	jobs map[string]*job
	// closed rejects new submissions (RejectNew/Close/Shutdown) before
	// they reach the executor, so a late handler gets an honest 503.
	closed bool
	// abandonCh closes when Shutdown ABANDONS queued jobs (which never
	// close their done channels), waking synchronous waiters (the sweep
	// handler) to answer 503. It deliberately does NOT close on
	// RejectNew or Close: during a graceful drain in-flight sweeps keep
	// waiting — their jobs are still allowed to finish, and a sweep
	// whose last job completes inside the drain window delivers its
	// rendered result instead of a premature 503.
	abandoned bool
	abandonCh chan struct{}
}

// New builds a server and starts its execution backend behind the
// FIFO. Call Close to drain.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 1024
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	runner := harness.NewRunnerWorkers(cfg.Scale, workers)
	if !store.Real(cfg.Store) {
		cfg.Store = nil // typed-nil normalization; see store.Real
	}
	s := &Server{
		runner:       runner,
		st:           cfg.Store,
		scale:        cfg.Scale,
		scaleName:    cfg.ScaleName,
		maxBatch:     maxBatch,
		apiKey:       cfg.APIKey,
		log:          logger,
		clusterStats: cfg.ClusterStats,
		jobs:         make(map[string]*job),
		abandonCh:    make(chan struct{}),
	}
	// The local pool holds two jobs per worker, one running and one
	// ready, in a backlog exactly that deep. An executor built elsewhere
	// (a coordinator's lease table) holds up to its own backlog bound.
	resident := 2 * workers
	if cfg.NewExecutor != nil {
		resident = dispatch.MaxQueueDepth
	}
	s.queue = dispatch.NewQueue(resident, cfg.MaxQueue, s, func(sink dispatch.Sink) dispatch.Executor {
		if cfg.NewExecutor != nil {
			s.exec = cfg.NewExecutor(runner, sink)
		} else {
			s.exec = dispatch.NewLocalPool(runner, sink, resident)
		}
		return s.exec
	})
	return s
}

// jobByKey looks a job up without touching its state.
func (s *Server) jobByKey(key string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[key]
}

// The dispatch.Sink implementation: executors report job lifecycle
// transitions here (through the queue, which forwards after its own
// accounting). Unknown keys are ignored — the executor
// outliving a job table entry is not possible today (jobs are never
// evicted), but a sink must not panic on protocol slack.

// JobRunning implements dispatch.Sink.
func (s *Server) JobRunning(key string) {
	if j := s.jobByKey(key); j != nil {
		j.mu.Lock()
		if j.status == StatusQueued {
			j.status = StatusRunning
		}
		j.mu.Unlock()
	}
}

// JobRequeued implements dispatch.Sink (a lease expired; the job went
// back to the cluster queue).
func (s *Server) JobRequeued(key string) {
	if j := s.jobByKey(key); j != nil {
		j.mu.Lock()
		if j.status == StatusRunning {
			j.status = StatusQueued
		}
		j.mu.Unlock()
	}
}

// JobDone implements dispatch.Sink. It is the farm's one persist
// point, for both executors: the result is put once, before the job
// turns done, so a done poll implies a record. The put is disk IO and
// runs outside s.mu and j.mu. A job that is already terminal — born
// done from the store, or finished before — is never put again.
// Persistence is best-effort: a failed put costs the next restart a
// simulation, never this job (the store counts its own errors).
func (s *Server) JobDone(key string, res sim.ScenarioResult) {
	j := s.jobByKey(key)
	if j == nil {
		return
	}
	select {
	case <-j.done:
		return
	default:
	}
	if s.st != nil {
		_ = s.st.PutScenario(j.sc, res) // best-effort, see above
	}
	j.finish(StatusDone, res, "")
}

// JobFailed implements dispatch.Sink.
func (s *Server) JobFailed(key string, msg string) {
	if j := s.jobByKey(key); j != nil {
		s.log.Warn("job failed", slog.String("key", key), slog.String("error", msg))
		j.finish(StatusFailed, sim.ScenarioResult{}, msg)
	}
}

// Close stops accepting new work and DRAINS the queue: every accepted
// simulation runs to completion before Close returns. Use it when the
// queued work must not be lost (tests, batch jobs with no store).
func (s *Server) Close() { s.stop(false) }

// Shutdown stops accepting new work and ABANDONS the queue: workers
// finish at most their in-flight simulation and exit, leaving queued
// jobs unrun. This is the signal-handler path — a full-scale queue can
// hold hours of simulation, and clients can resubmit after a restart
// (a store makes completed work free). Jobs left behind keep their
// "queued" status; the process is exiting anyway.
func (s *Server) Shutdown() { s.stop(true) }

// RejectNew makes every subsequent submission fail with an honest
// "shutting down" 503 while workers keep running. Call it BEFORE
// draining in-flight HTTP requests: otherwise a handler that is mid-
// flight when shutdown starts can enqueue a batch, answer 202 with
// keys, and have Shutdown abandon that work — leaving the client
// polling keys that will 404 on the restarted server.
func (s *Server) RejectNew() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// stop implements Close/Shutdown: reject new submissions, then stop
// the executor. Only the abandoning path wakes sweep waiters — a
// draining Close runs every queued job to completion, so waiters
// finish naturally through their done channels.
func (s *Server) stop(abandon bool) {
	s.mu.Lock()
	s.closed = true
	if abandon && !s.abandoned {
		s.abandoned = true
		close(s.abandonCh)
	}
	s.mu.Unlock()
	s.queue.Stop(abandon)
}

// Handler returns the server's HTTP routes, and a coordinator
// executor's lease routes, wrapped in the logging and API-key
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", s.handleSubmitScenarios)
	mux.HandleFunc("GET /v1/scenarios/{key}", s.handlePollScenario)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	mux.HandleFunc("GET /v1/store/stats", s.handleStoreStats)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if coord, ok := s.exec.(*dispatch.Coordinator); ok {
		coord.Register(mux)
	}
	// Without a catch-all the mux answers an unknown route or a wrong
	// method in plain text; every non-2xx answer must be the envelope.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		client.WriteError(w, http.StatusNotFound, client.CodeNotFound,
			"no route for %s %s", r.Method, r.URL.Path)
	})
	return logMiddleware(s.log, &s.httpStats, keyMiddleware(s.apiKey, mux))
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	client.WriteJSON(w, client.VersionInfo{
		API:                "v1",
		StoreFormatVersion: store.FormatVersion,
		MaxCores:           sim.MaxCores,
		Scale:              s.scaleName,
		AuthRequired:       s.apiKey != "",
	})
}

// enqueue registers and enqueues pre-validated, pinned scenarios under
// one job-table lock hold (queue Enqueues never block); keys[i] must
// be store.ScenarioKey(scs[i]). A job becomes visible in s.jobs only
// once the queue actually holds it (or the
// store already held its result), so no concurrent submitter can ever
// be handed a key that later disappears. A key the persistent store
// already has is born done without touching the executor — the path
// that lets a restarted cluster serve known scenarios without
// re-leasing anything. On a shed the already-enqueued prefix stands — it is valid work, and a retry dedups onto it — and the
// error tells the caller what to answer; dispatch.ErrClosing means
// Close has begun and retrying this server is pointless. The returned
// jobs include deduplicated hits on existing keys, in batch order.
//
// The store is consulted before taking the job-table lock: a disk read
// per scenario is the expensive part, and doing it here keeps
// concurrent submitters (and every Sink callback) from serializing
// behind it. The store peek races benignly with concurrent submits of
// the same key — whoever takes the lock first registers the job, and
// the loser below reuses it.
func (s *Server) enqueue(keys []string, scs []sim.Scenario) ([]*job, error) {
	stored := make(map[string]store.Record)
	if s.st != nil {
		for _, key := range keys {
			if _, seen := stored[key]; seen {
				continue
			}
			if known := s.jobByKey(key); known != nil {
				continue // already tracked; no store read needed
			}
			if rec, found := s.st.GetKey(key); found {
				stored[key] = rec
			}
		}
	}
	jobs := make([]*job, 0, len(scs))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return jobs, dispatch.ErrClosing
	}
	for i, sc := range scs {
		key := keys[i]
		if existing, found := s.jobs[key]; found {
			jobs = append(jobs, existing)
			continue
		}
		if rec, found := stored[key]; found {
			jobs = append(jobs, s.adoptLocked(key, rec))
			continue
		}
		if err := s.queue.Enqueue(key, sc); err != nil {
			return jobs, err
		}
		j := newJob(key, sc)
		s.jobs[key] = j
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// maxBodyBytes bounds submission bodies: a full MaxBatch of scenarios
// fits comfortably, and an unbounded body must never reach the JSON
// decoder (fuzz-hardened: malformed, truncated or oversized bodies all
// answer 4xx, never a panic or a 5xx).
const maxBodyBytes = 8 << 20

// decodeBody decodes a size-capped JSON submission, mapping every
// failure (bad JSON, truncation, over-size) to a 400 envelope.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "decode body: %v", err)
		return false
	}
	return true
}

// accept is the submit path every handler drains into: enqueue pinned
// scenarios, or write the refusal's envelope — shutdown and shed both
// 503 and retryable, a shed with a Retry-After hint.
func (s *Server) accept(w http.ResponseWriter, keys []string, scs []sim.Scenario) ([]*job, bool) {
	jobs, err := s.enqueue(keys, scs)
	switch {
	case err == nil:
		return jobs, true
	case errors.Is(err, dispatch.ErrClosing):
		client.WriteError(w, http.StatusServiceUnavailable, client.CodeShuttingDown,
			"server shutting down; submit elsewhere")
	default:
		client.WriteErrorRetryAfter(w, http.StatusServiceUnavailable, client.CodeOverloaded, shedRetryAfter,
			"server overloaded, shedding load; retry later")
	}
	return nil, false
}

func (s *Server) handleSubmitScenarios(w http.ResponseWriter, r *http.Request) {
	var req client.SubmitScenariosRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch n := len(req.Scenarios); {
	case n == 0:
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
			"empty batch: body must carry at least one scenario")
		return
	case n > s.maxBatch:
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
			"batch of %d scenarios exceeds the %d-per-request limit", n, s.maxBatch)
		return
	}
	// Validate the whole batch before enqueueing any of it, so a batch
	// is accepted atomically or not at all.
	scs := make([]sim.Scenario, 0, len(req.Scenarios))
	keys := make([]string, 0, len(req.Scenarios))
	for i, sc := range req.Scenarios {
		if err := sc.Validate(); err != nil {
			client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "scenario %d: %v", i, err)
			return
		}
		// The runner pins every scale field but SkipInstr, which stays a
		// content-key axis; no bound on it is safe (a huge skip ties a
		// worker up for good), so a submission leaves it to the default.
		for j, cfg := range sc.Cores {
			if cfg.SkipInstr != 0 {
				client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
					"scenario %d: core %d: SkipInstr must be 0, the server runs the default skip (got %d)", i, j, cfg.SkipInstr)
				return
			}
		}
		n := s.runner.NormalizeScenario(sc)
		scs = append(scs, n)
		keys = append(keys, store.ScenarioKey(n))
	}

	jobs, ok := s.accept(w, keys, scs)
	if !ok {
		return
	}
	parts, ok := scenarioJSONs(w, jobs)
	if !ok {
		return
	}
	// The bytes json.Encoder emits for a client.SubmitScenariosResponse,
	// assembled from each job's encoding.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	io.WriteString(w, `{"scenarios":[`)
	for i, b := range parts {
		if i > 0 {
			io.WriteString(w, ",")
		}
		w.Write(b)
	}
	io.WriteString(w, "]}\n")
}

// scenarioJSONs collects the jobs' wire encodings, or writes the 500
// envelope when one cannot be encoded.
func scenarioJSONs(w http.ResponseWriter, jobs []*job) ([][]byte, bool) {
	parts := make([][]byte, len(jobs))
	for i, j := range jobs {
		b, err := j.scenarioJSON()
		if err != nil {
			client.WriteError(w, http.StatusInternalServerError, client.CodeInternal,
				"encode scenario %s: %v", j.key, err)
			return nil, false
		}
		parts[i] = b
	}
	return parts, true
}

// adoptLocked registers a job born done from a store record: a result
// a previous life of this service (or another node on the same store)
// persisted. The executor never sees the job, and JobDone never puts
// it again. enqueue and lookup both adopt through it, so a
// store-served poll serves the same bytes as a live one. Call with
// s.mu held.
func (s *Server) adoptLocked(key string, rec store.Record) *job {
	j := newJob(key, rec.Scenario)
	j.finish(StatusDone, rec.Result, "")
	s.jobs[key] = j
	return j
}

// lookup finds a key's job. A key this process never saw but the store
// holds is adopted as a job born done. Nil means the key is unknown.
func (s *Server) lookup(key string) *job {
	if j := s.jobByKey(key); j != nil {
		return j
	}
	if s.st == nil {
		return nil
	}
	rec, found := s.st.GetKey(key)
	if !found {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, found := s.jobs[key]; found {
		return j // a concurrent submit or poll registered it first
	}
	return s.adoptLocked(key, rec)
}

func (s *Server) handlePollScenario(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	j := s.lookup(key)
	if j == nil {
		client.WriteError(w, http.StatusNotFound, client.CodeNotFound, "unknown scenario key %q", key)
		return
	}
	parts, ok := scenarioJSONs(w, []*job{j})
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(parts[0])
	io.WriteString(w, "\n")
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	ID   string `json:"id"`
	Desc string `json:"desc"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	// Presentation order (the paper's), matching shotgun-bench -list.
	var list []experimentInfo
	for _, e := range spec.Catalog() {
		list = append(list, experimentInfo{ID: e.ID, Desc: e.Desc})
	}
	client.WriteJSON(w, map[string]any{"experiments": list})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	exp, ok := spec.FindExperiment(name)
	if !ok {
		client.WriteError(w, http.StatusNotFound, client.CodeNotFound,
			"unknown experiment %q (GET /v1/experiments lists ids)", name)
		return
	}
	format, ok := formatOf(w, r)
	if !ok {
		return
	}
	// Render the way a sweep does: the scenarios run as jobs (queued,
	// shed past -max-queue, leased out by a coordinator), then the table
	// is assembled from their results.
	keys, pinned := s.pinScenarios([]harness.Experiment{exp})
	jobs, ok := s.accept(w, keys, pinned)
	if !ok || !s.awaitJobs(w, r, "experiment", exp.ID, jobs) {
		return
	}
	runner := s.renderRunner(jobs)
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, exp.Run(runner))
		return
	}
	rep := report.FromExperiments(runner, []harness.Experiment{exp}, s.scaleName)
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		// A write error leaves nothing better to do: headers are gone.
		_ = rep.WriteCSV(w)
		return
	}
	client.WriteJSON(w, rep)
}

// storeStatsResponse is GET /v1/store/stats' body.
type storeStatsResponse struct {
	Attached bool        `json:"attached"`
	Stats    store.Stats `json:"stats,omitempty"`
}

func (s *Server) handleStoreStats(w http.ResponseWriter, _ *http.Request) {
	resp := storeStatsResponse{}
	if s.st != nil {
		resp.Attached = true
		resp.Stats = s.st.Stats()
	}
	client.WriteJSON(w, resp)
}
