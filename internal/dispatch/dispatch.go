// Package dispatch is the execution layer behind the HTTP simulation
// service: it decides WHERE an accepted scenario job actually runs.
//
// Two executors implement the same contract, and both only simulate:
//
//   - LocalPool — the classic single-node path: a fixed goroutine pool
//     in this process running sim.RunScenario. Zero-flag shotgun-server
//     is exactly this.
//   - Coordinator — the cluster path: jobs wait in a lease table and
//     are handed out over HTTP to shotgun-server -join worker
//     processes, each running sim.RunScenario and pushing the finished
//     result back. Leases expire (workers heartbeat to keep them) and
//     expired jobs are requeued, so a worker dying mid-simulation
//     delays its job instead of losing it.
//
// The server reaches either one through a Queue: one FIFO of accepted
// jobs that hands the executor a bounded number at a time. Either way,
// job identity is the canonical ScenarioKey and results reach the
// server's Sink. The server's job table deduplicates keys
// before they are enqueued and persists each result once when its job
// completes, so a scenario is simulated at most once per cluster
// lifetime — and zero times when a persistent store already holds its
// record. No executor keeps a result.
package dispatch

import (
	"errors"
	"fmt"
	"sync"

	"shotgun/internal/harness"
	"shotgun/internal/sim"
)

// Enqueue failure modes, distinguished so the HTTP layer can tell
// clients whether retrying this process is useful.
var (
	// ErrQueueFull rejects a job because the executor's backlog is at
	// capacity; retrying later is reasonable.
	ErrQueueFull = errors.New("dispatch: queue full")
	// ErrClosing rejects a job because the executor is shutting down;
	// clients should resubmit elsewhere (or after a restart).
	ErrClosing = errors.New("dispatch: shutting down")
	// ErrOverloaded rejects a job because the Queue's bound on jobs
	// not yet running was passed — the shed signal the HTTP layer turns
	// into 503 + Retry-After.
	ErrOverloaded = errors.New("dispatch: overloaded, shedding load")
)

// MaxQueueDepth bounds an executor's backlog: the coordinator's lease
// table (queued plus leased jobs), and with it how many keys one
// heartbeat request may carry. A Queue in front of an executor built
// elsewhere keeps at most this many jobs in it.
const MaxQueueDepth = 4096

// Sink receives job lifecycle events from an executor. The HTTP server
// implements it over its job table. Implementations must be safe for
// concurrent use and must not call back into the executor.
type Sink interface {
	// JobRunning marks a job as executing (leased, or picked up by a
	// local worker).
	JobRunning(key string)
	// JobRequeued returns a job to the queued state (its lease expired
	// before completion).
	JobRequeued(key string)
	// JobDone delivers a job's result.
	JobDone(key string, res sim.ScenarioResult)
	// JobFailed marks a job as permanently failed.
	JobFailed(key string, msg string)
}

// Executor runs scenario jobs asynchronously, reporting progress
// through the Sink it was built with.
type Executor interface {
	// Enqueue schedules one normalized scenario under its content key.
	// It never blocks: a full backlog returns ErrQueueFull, a stopping
	// executor ErrClosing. The caller guarantees at most one Enqueue
	// per key per process (the server's job table dedups first).
	Enqueue(key string, sc sim.Scenario) error
	// Stop shuts the executor down. abandon=false drains every queued
	// job first (local pool: run them; coordinator: wait for workers);
	// abandon=true finishes at most in-flight work and leaves the rest
	// queued — the signal-handler path, where a store plus resubmit
	// recovers completed work for free.
	Stop(abandon bool)
}

// localJob is one queued local simulation.
type localJob struct {
	key string
	sc  sim.Scenario
}

// LocalPool executes jobs on a fixed goroutine pool in this process —
// the single-node executor the zero-flag server uses. Each worker runs
// sim.RunScenario on the scenario as enqueued (the server has already
// pinned, normalized and deduplicated it) and hands the result to the
// sink; the pool keeps no result.
type LocalPool struct {
	sink Sink

	mu sync.Mutex
	// closed rejects new submissions; stopped records that the channels
	// below are closed. closed is set (under mu) no later than the
	// queue channel closes, so Enqueue — which sends while holding mu —
	// can never send on a closed channel even if an HTTP handler
	// outlives a shutdown deadline and submits after Stop began.
	closed  bool
	stopped bool

	queue chan localJob
	// quit, when closed, tells workers to exit after their in-flight
	// job instead of draining the queue (abandon vs drain).
	quit chan struct{}
	wg   sync.WaitGroup
}

// NewLocalPool builds a pool of runner.Workers() goroutines with a
// queueDepth-deep backlog (values below 1 mean MaxQueueDepth). The
// runner only sizes the pool: jobs never run through it, so its memo
// and store stay untouched.
func NewLocalPool(runner *harness.Runner, sink Sink, queueDepth int) *LocalPool {
	if queueDepth < 1 {
		queueDepth = MaxQueueDepth
	}
	p := &LocalPool{
		sink:  sink,
		queue: make(chan localJob, queueDepth),
		quit:  make(chan struct{}),
	}
	workers := runner.Workers()
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Enqueue implements Executor. The channel send is non-blocking, so
// holding mu across it is safe.
func (p *LocalPool) Enqueue(key string, sc sim.Scenario) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosing
	}
	select {
	case p.queue <- localJob{key: key, sc: sc}:
		return nil
	default:
		return ErrQueueFull
	}
}

// Stop implements Executor.
func (p *LocalPool) Stop(abandon bool) {
	p.mu.Lock()
	p.closed = true
	if !p.stopped {
		p.stopped = true
		if abandon {
			close(p.quit)
		}
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// worker drains the queue until it closes (or quit fires).
func (p *LocalPool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		select {
		case <-p.quit:
			return // abandon: leave the rest of the queue
		default:
		}
		p.sink.JobRunning(j.key)
		if res, msg := simulate(j.sc); msg != "" {
			p.sink.JobFailed(j.key, msg)
		} else {
			p.sink.JobDone(j.key, res)
		}
	}
}

// simulate runs one scenario exactly as given, reporting a failure —
// an error, or a panic from a scenario that validated but still cannot
// simulate — as a message instead of killing the caller. Both
// executors run jobs through it.
func simulate(sc sim.Scenario) (res sim.ScenarioResult, msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	res, err := sim.RunScenario(sc)
	if err != nil {
		return sim.ScenarioResult{}, err.Error()
	}
	return res, ""
}
