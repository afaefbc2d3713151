package dispatch

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/sim"
)

// Lease protocol defaults.
const (
	// DefaultLeaseTTL is how long a worker owns a job between
	// heartbeats before the coordinator assumes the worker died.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultMaxAttempts is how many expired leases a job survives
	// before it is declared failed instead of requeued (a job that
	// kills every worker that touches it must not poison the queue
	// forever).
	DefaultMaxAttempts = 5
	// maxLeaseBatch caps jobs handed out per lease call.
	maxLeaseBatch = 64
	// maxRequestBytes bounds every dispatch request body; complete
	// bodies carry up to 16 per-core results, which fit comfortably.
	maxRequestBytes = 4 << 20
	// maxWorkerID bounds the self-reported worker name.
	maxWorkerID = 128
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is the heartbeat deadline (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxAttempts is the expired-lease budget per job (default
	// DefaultMaxAttempts).
	MaxAttempts int
	// Sink receives job lifecycle events (required).
	Sink Sink
	// Now is the clock (default time.Now; tests inject a fake to drive
	// lease expiry deterministically).
	Now func() time.Time
	// ReapEvery is the periodic lease-reaper interval. Expired leases
	// are also reaped on every table access, but a quiet coordinator —
	// no worker polling — would otherwise never requeue a dead worker's
	// job and a blocking sweep waiter would hang until client timeout.
	// 0 means LeaseTTL/2; negative disables the ticker (tests drive
	// Reap directly).
	ReapEvery time.Duration
}

// task is one job in the lease table.
type task struct {
	key string
	sc  sim.Scenario
	// worker/expiry are set while leased; empty/zero while queued.
	worker   string
	expiry   time.Time
	attempts int
}

// CoordinatorStats counts lease-table traffic since construction.
type CoordinatorStats struct {
	Enqueued      uint64 `json:"enqueued"`
	Leased        uint64 `json:"leased"`
	Completed     uint64 `json:"completed"`
	Failed        uint64 `json:"failed"`
	Requeued      uint64 `json:"requeued"`
	Expired       uint64 `json:"expired"` // attempts budget exhausted
	DupCompletes  uint64 `json:"dup_completes"`
	Pending       int    `json:"pending"`   // queued, unleased
	InFlight      int    `json:"in_flight"` // leased
	ActiveWorkers int    `json:"active_workers"`
}

// Coordinator owns the cluster's lease table: it leases queued
// scenarios to workers over HTTP, expires leases whose worker stopped
// heartbeating, and hands each pushed-back result to its Sink once. It
// implements Executor, so the HTTP server uses it exactly like the
// local pool; the server, not the coordinator, persists results.
type Coordinator struct {
	ttl         time.Duration
	depth       int // lease-table bound: MaxQueueDepth (in-package tests shrink it)
	maxAttempts int
	sink        Sink
	now         func() time.Time

	reapStop chan struct{} // closes on Stop; ends the reaper ticker
	reapDone chan struct{} // closed when the reaper goroutine exits
	stopOnce sync.Once

	mu      sync.Mutex
	cond    *sync.Cond // signaled whenever the table shrinks (drain wait)
	pending []*task    // FIFO, unleased
	leased  map[string]*task
	closed  bool // no new Enqueues
	halted  bool // no new leases either (abandoning Stop)
	// lastSeen tracks worker liveness for introspection only; leases,
	// not this map, decide correctness.
	lastSeen map[string]time.Time
	stats    CoordinatorStats
}

// NewCoordinator builds a coordinator. Sink is required.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Sink == nil {
		panic("dispatch: coordinator needs a sink")
	}
	c := &Coordinator{
		ttl:         cfg.LeaseTTL,
		depth:       MaxQueueDepth,
		maxAttempts: cfg.MaxAttempts,
		sink:        cfg.Sink,
		now:         cfg.Now,
		leased:      make(map[string]*task),
		lastSeen:    make(map[string]time.Time),
		reapStop:    make(chan struct{}),
		reapDone:    make(chan struct{}),
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	if c.maxAttempts < 1 {
		c.maxAttempts = DefaultMaxAttempts
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.cond = sync.NewCond(&c.mu)
	every := cfg.ReapEvery
	if every == 0 {
		every = c.ttl / 2
	}
	if every > 0 {
		go c.reaper(every)
	} else {
		close(c.reapDone)
	}
	return c
}

// reaper ticks Reap so lease expiry does not depend on worker traffic:
// without it, a dead worker's lease on a quiet coordinator is only
// noticed "on the next table access" — which never comes — and a
// blocking sweep waiter hangs until its client times out.
func (c *Coordinator) reaper(every time.Duration) {
	defer close(c.reapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case <-t.C:
			c.Reap()
		}
	}
}

// Reap requeues (or fails) every expired lease once, emitting the
// resulting sink events. The periodic reaper calls it on a ticker;
// tests call it directly against an injected clock.
func (c *Coordinator) Reap() {
	now := c.now()
	c.mu.Lock()
	events := c.reapLocked(now)
	c.mu.Unlock()
	c.emit(events)
}

// Enqueue implements Executor: the job joins the lease table's FIFO.
// It is idempotent per key: enqueueing a key that is already pending or
// leased is a no-op success, so a key is in the table at most once and
// is never leased to two workers at the same time.
func (c *Coordinator) Enqueue(key string, sc sim.Scenario) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosing
	}
	if _, ok := c.leased[key]; ok {
		return nil
	}
	for _, p := range c.pending {
		if p.key == key {
			return nil
		}
	}
	if len(c.pending)+len(c.leased) >= c.depth {
		return ErrQueueFull
	}
	c.pending = append(c.pending, &task{key: key, sc: sc})
	c.stats.Enqueued++
	return nil
}

// Stop implements Executor. Draining (abandon=false) waits until every
// queued and leased job has completed or failed — workers must still be
// polling for that to ever finish, so the signal-handler path uses
// abandon=true, which freezes the table and returns (the server has
// already persisted completed work; a restart plus resubmit recovers
// the rest).
func (c *Coordinator) Stop(abandon bool) {
	c.stopOnce.Do(func() { close(c.reapStop) })
	c.mu.Lock()
	c.closed = true
	if abandon {
		c.halted = true
	} else {
		for len(c.pending)+len(c.leased) > 0 {
			c.cond.Wait()
		}
	}
	c.mu.Unlock()
	<-c.reapDone
}

// sinkEvent is one deferred Sink call. The coordinator NEVER invokes
// the Sink while holding c.mu: the server's Sink methods take the job-
// table lock, and the server calls Enqueue (which takes c.mu) while
// holding that same lock — emitting under c.mu is an AB-BA deadlock
// with any concurrent submit. Every entry point collects events under
// the lock and emits them after unlocking. The server's Sink guards
// (JobRunning only upgrades "queued", JobRequeued only downgrades
// "running") keep out-of-order delivery harmless.
type sinkEvent struct {
	kind string // "running", "requeued", "failed"
	key  string
	msg  string
}

// emit delivers deferred events; call with c.mu NOT held.
func (c *Coordinator) emit(events []sinkEvent) {
	for _, e := range events {
		switch e.kind {
		case "running":
			c.sink.JobRunning(e.key)
		case "requeued":
			c.sink.JobRequeued(e.key)
		case "failed":
			c.sink.JobFailed(e.key, e.msg)
		}
	}
}

// reapLocked requeues (or fails) every lease that expired before now,
// returning the Sink events for the caller to emit after unlock.
// Called from every table entry point, so expiry needs no background
// goroutine: the next worker poll after the deadline observes it —
// and requeue matters only when a worker is around to take the job.
// It also drops worker-liveness entries older than the Stats
// activeness window, so a churn of unique worker names cannot grow
// lastSeen without bound.
func (c *Coordinator) reapLocked(now time.Time) []sinkEvent {
	var expired []*task
	for _, t := range c.leased {
		if now.After(t.expiry) {
			expired = append(expired, t)
		}
	}
	// Deterministic requeue order on multi-expiry (map iteration is
	// randomized): oldest expiry first, key as tiebreak.
	sort.Slice(expired, func(i, j int) bool {
		if !expired[i].expiry.Equal(expired[j].expiry) {
			return expired[i].expiry.Before(expired[j].expiry)
		}
		return expired[i].key < expired[j].key
	})
	var events []sinkEvent
	for _, t := range expired {
		delete(c.leased, t.key)
		t.worker, t.expiry = "", time.Time{}
		t.attempts++
		if t.attempts >= c.maxAttempts {
			c.stats.Expired++
			c.stats.Failed++
			events = append(events, sinkEvent{kind: "failed", key: t.key,
				msg: fmt.Sprintf("lease expired %d times (worker death budget exhausted)", t.attempts)})
			c.cond.Broadcast()
			continue
		}
		c.stats.Requeued++
		c.pending = append(c.pending, t)
		events = append(events, sinkEvent{kind: "requeued", key: t.key})
	}
	for worker, seen := range c.lastSeen {
		if now.Sub(seen) > 2*c.ttl {
			delete(c.lastSeen, worker)
		}
	}
	return events
}

// Lease hands up to max queued jobs to a worker, each owned until
// now+TTL unless heartbeated. Returns the granted jobs and the TTL the
// worker must beat.
func (c *Coordinator) Lease(worker string, max int) ([]LeasedJob, time.Duration) {
	if max < 1 {
		max = 1
	}
	if max > maxLeaseBatch {
		max = maxLeaseBatch
	}
	now := c.now()
	c.mu.Lock()
	events := c.reapLocked(now)
	c.lastSeen[worker] = now
	var jobs []LeasedJob
	if !c.halted {
		for len(jobs) < max && len(c.pending) > 0 {
			t := c.pending[0]
			c.pending = c.pending[1:]
			t.worker = worker
			t.expiry = now.Add(c.ttl)
			c.leased[t.key] = t
			c.stats.Leased++
			jobs = append(jobs, LeasedJob{Key: t.key, Scenario: t.sc})
			events = append(events, sinkEvent{kind: "running", key: t.key})
		}
	}
	c.mu.Unlock()
	c.emit(events)
	return jobs, c.ttl
}

// Heartbeat renews the worker's leases, returning the keys it no
// longer owns (expired and requeued, or completed by someone else) so
// it can abandon that work.
func (c *Coordinator) Heartbeat(worker string, keys []string) (lost []string) {
	now := c.now()
	c.mu.Lock()
	events := c.reapLocked(now)
	c.lastSeen[worker] = now
	for _, key := range keys {
		if t, ok := c.leased[key]; ok && t.worker == worker {
			t.expiry = now.Add(c.ttl)
			continue
		}
		lost = append(lost, key)
	}
	c.mu.Unlock()
	c.emit(events)
	return lost
}

// Complete accepts one finished job from a worker. A result from a
// stale owner is still valid work and is accepted as long as the job
// is unfinished (leased to anyone, or back in the queue); only a
// genuinely finished job reports accepted=false, so at-least-once
// workers converge without double-recording. errMsg non-empty marks
// the job failed instead.
func (c *Coordinator) Complete(worker, key string, res sim.ScenarioResult, errMsg string) (accepted bool, err error) {
	now := c.now()
	c.mu.Lock()
	events := c.reapLocked(now)
	c.lastSeen[worker] = now
	t, ok := c.leased[key]
	if ok {
		delete(c.leased, key)
	} else {
		for i, p := range c.pending {
			if p.key == key {
				t, ok = p, true
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
	}
	if !ok {
		c.stats.DupCompletes++
		c.mu.Unlock()
		c.emit(events)
		return false, nil
	}
	if errMsg == "" && len(res.Cores) != len(t.sc.Cores) {
		// Malformed push: the job goes back to the queue rather than
		// trusting a result of the wrong shape.
		t.worker, t.expiry = "", time.Time{}
		c.pending = append(c.pending, t)
		c.stats.Requeued++
		events = append(events, sinkEvent{kind: "requeued", key: key})
		c.mu.Unlock()
		c.emit(events)
		return false, fmt.Errorf("dispatch: %d results for %d cores", len(res.Cores), len(t.sc.Cores))
	}
	if errMsg != "" {
		c.stats.Failed++
	} else {
		c.stats.Completed++
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.emit(events)

	// The sink runs outside the table lock (the server's JobDone does
	// disk IO), and the single table removal above already guarantees
	// exactly one completion per key.
	if errMsg != "" {
		c.sink.JobFailed(key, errMsg)
		return true, nil
	}
	c.sink.JobDone(key, res)
	return true, nil
}

// Stats snapshots the lease table. Workers count as active when seen
// within two TTLs.
func (c *Coordinator) Stats() CoordinatorStats {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Pending = len(c.pending)
	s.InFlight = len(c.leased)
	for _, seen := range c.lastSeen {
		if now.Sub(seen) <= 2*c.ttl {
			s.ActiveWorkers++
		}
	}
	return s
}

// ---------------------------------------------------------------------
// HTTP wire protocol. The request/response shapes live in
// internal/client — the single definition of the v1 surface — and the
// handlers here only bind them to the lease table.
// ---------------------------------------------------------------------

// LeasedJob is one job granted to a worker (defined in
// internal/client; aliased so dispatch APIs read naturally).
type LeasedJob = client.LeasedJob

// Register mounts the coordinator's routes on mux, alongside the
// simulation server's public API.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/cluster", c.handleStats)
}

// decodeInto decodes a size-capped JSON body, mapping every failure to
// a 400 envelope (malformed and oversized bodies must never 5xx or
// panic).
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "decode body: %v", err)
		return false
	}
	return true
}

// validWorker rejects absent or absurd worker names.
func validWorker(w http.ResponseWriter, worker string) bool {
	if worker == "" || len(worker) > maxWorkerID {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
			"worker id must be 1..%d bytes", maxWorkerID)
		return false
	}
	return true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req client.LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if !validWorker(w, req.Worker) {
		return
	}
	jobs, ttl := c.Lease(req.Worker, req.Max)
	client.WriteJSON(w, client.LeaseResponse{TTLMillis: ttl.Milliseconds(), Jobs: jobs})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req client.HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if !validWorker(w, req.Worker) {
		return
	}
	if len(req.Keys) > c.depth {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
			"heartbeat for %d keys exceeds the %d-deep table", len(req.Keys), c.depth)
		return
	}
	client.WriteJSON(w, client.HeartbeatResponse{Lost: c.Heartbeat(req.Worker, req.Keys)})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req client.CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if !validWorker(w, req.Worker) {
		return
	}
	if req.Key == "" {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "complete needs a job key")
		return
	}
	accepted, err := c.Complete(req.Worker, req.Key, req.Result, req.Error)
	if err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "%v", err)
		return
	}
	client.WriteJSON(w, client.CompleteResponse{Accepted: accepted})
}

// handleStats answers GET /v1/cluster with the lease-table stats.
func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	client.WriteJSON(w, c.Stats())
}
