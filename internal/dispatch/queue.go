package dispatch

import (
	"sync"

	"shotgun/internal/sim"
)

// QueueStats is a point-in-time snapshot of a Queue for /metrics.
type QueueStats struct {
	// Queued counts accepted jobs that are not running: waiting in the
	// FIFO, or held by the executor but not yet picked up by a local
	// worker or leased (a requeued lease counts here again).
	Queued int
	// Running counts jobs a local or cluster worker is simulating.
	Running int
	// Shed counts submissions refused by the MaxQueue bound.
	Shed uint64
}

// queuedJob is one accepted job waiting in the FIFO.
type queuedJob struct {
	key string
	sc  sim.Scenario
}

// Queue is the Executor the server submits to: one FIFO of accepted
// jobs in front of an inner executor (LocalPool or Coordinator). It
// hands the inner executor at most `resident` jobs at a time, the
// oldest waiting job the moment one finishes, so the inner backlog
// never fills however many jobs are accepted. Jobs run in submission
// order: a large sweep submitted first delays what comes after it.
//
// Queue is the Sink of its inner executor and forwards every event to
// the outer sink after releasing its own lock, preserving the lock
// order (server → queue → inner) that keeps HTTP submits and executor
// callbacks deadlock-free.
type Queue struct {
	inner    Executor
	sink     Sink
	resident int
	maxQ     int
	done     chan struct{} // dispatcher exited

	mu      sync.Mutex
	cond    *sync.Cond // signals the dispatcher
	fifo    []queuedJob
	held    map[string]bool // keys held by the inner executor -> running
	stats   QueueStats
	closing bool // no new submissions
	abandon bool // dispatcher exits without draining the FIFO
}

// NewQueue builds the queue and starts its dispatcher. resident bounds
// the jobs held by the inner executor at once (values below 1 mean
// 1); keep it at or below the inner executor's backlog. maxQueue
// bounds accepted jobs that are not running; past it Enqueue sheds
// with ErrOverloaded (0 means unlimited). newInner builds the inner
// executor with the queue as its sink: events flow inner → queue →
// sink.
func NewQueue(resident, maxQueue int, sink Sink, newInner func(Sink) Executor) *Queue {
	q := &Queue{
		sink:     sink,
		resident: max(resident, 1),
		maxQ:     maxQueue,
		done:     make(chan struct{}),
		held:     make(map[string]bool),
	}
	q.cond = sync.NewCond(&q.mu)
	q.inner = newInner(q)
	go q.dispatch()
	return q
}

// Enqueue implements Executor. It never blocks: a stopping queue
// returns ErrClosing, a queue holding maxQueue jobs that are not
// running ErrOverloaded. The caller dedups keys first.
func (q *Queue) Enqueue(key string, sc sim.Scenario) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return ErrClosing
	}
	if q.maxQ > 0 && q.stats.Queued >= q.maxQ {
		q.stats.Shed++
		return ErrOverloaded
	}
	q.fifo = append(q.fifo, queuedJob{key: key, sc: sc})
	q.stats.Queued++
	q.cond.Signal()
	return nil
}

// Stop implements Executor. abandon=false hands every waiting job to
// the inner executor and drains it; abandon=true drops the FIFO (the
// server's job table keeps the abandoned statuses) and stops the inner
// executor after in-flight work only.
func (q *Queue) Stop(abandon bool) {
	q.mu.Lock()
	q.closing = true
	if abandon {
		q.abandon = true
		q.stats.Queued -= len(q.fifo)
		q.fifo = nil
	}
	q.cond.Signal()
	q.mu.Unlock()
	<-q.done
	q.inner.Stop(abandon)
}

// Stats snapshots the queue for the metrics endpoint.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// JobRunning implements Sink.
func (q *Queue) JobRunning(key string) {
	q.mark(key, true)
	q.sink.JobRunning(key)
}

// JobRequeued implements Sink: the job stays held by the inner
// executor, waiting for another lease.
func (q *Queue) JobRequeued(key string) {
	q.mark(key, false)
	q.sink.JobRequeued(key)
}

// JobDone implements Sink: free the job's place, then forward.
func (q *Queue) JobDone(key string, res sim.ScenarioResult) {
	q.release(key)
	q.sink.JobDone(key, res)
}

// JobFailed implements Sink: free the job's place, then forward.
func (q *Queue) JobFailed(key string, msg string) {
	q.release(key)
	q.sink.JobFailed(key, msg)
}

// mark moves a held job between queued and running.
func (q *Queue) mark(key string, running bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if was, ok := q.held[key]; ok && was != running {
		q.held[key] = running
		if running {
			q.stats.Queued--
			q.stats.Running++
		} else {
			q.stats.Queued++
			q.stats.Running--
		}
	}
}

// release drops a finished job and wakes the dispatcher. Sink
// forwarding happens in the callers, after the lock is gone.
func (q *Queue) release(key string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	running, ok := q.held[key]
	if !ok {
		return
	}
	delete(q.held, key)
	if running {
		q.stats.Running--
	} else {
		q.stats.Queued--
	}
	q.cond.Signal()
}

// dispatch hands the oldest waiting job to the inner executor whenever
// it holds fewer than resident jobs. It runs until Stop: abandon exits
// at once, a drain once the FIFO is empty.
func (q *Queue) dispatch() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for !q.abandon && (len(q.fifo) == 0 || len(q.held) >= q.resident) {
			if q.closing && len(q.fifo) == 0 {
				q.mu.Unlock()
				return
			}
			q.cond.Wait()
		}
		if q.abandon {
			q.mu.Unlock()
			return
		}
		job := q.fifo[0]
		q.fifo[0] = queuedJob{}
		q.fifo = q.fifo[1:]
		q.held[job.key] = false
		q.mu.Unlock()
		// The inner Enqueue runs outside mu: executors emit sink events
		// from their own goroutines at any time, and those re-enter mark
		// and release.
		if err := q.inner.Enqueue(job.key, job.sc); err != nil {
			q.release(job.key)
			q.sink.JobFailed(job.key, "dispatch: "+err.Error())
		}
	}
}
