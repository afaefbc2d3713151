package dispatch

import (
	"sync"

	"shotgun/internal/sim"
)

// TenantPolicy is one tenant's share of the farm: its scheduling
// weight and its quotas. The zero value means "default share, no
// quotas".
type TenantPolicy struct {
	// Name identifies the tenant ("" is the anonymous tenant used when
	// auth is off).
	Name string
	// Weight is the tenant's share in the weighted round-robin (values
	// below 1 schedule as 1). A weight-3 tenant is granted three slots
	// for every one a weight-1 tenant gets — when both have work
	// waiting; an idle tenant's share flows to the busy ones.
	Weight int
	// MaxQueued bounds the tenant's outstanding jobs (waiting +
	// in-flight). 0 means unlimited. Exceeding it fails Submit with
	// ErrQuotaExceeded — the 429 path.
	MaxQueued int
	// MaxInFlight bounds how many of the tenant's jobs may be resident
	// in the inner executor at once. 0 means unlimited. This is a
	// scheduling cap, never an error: excess work just waits.
	MaxInFlight int
}

// fairJob is one waiting submission.
type fairJob struct {
	key string
	sc  sim.Scenario
}

// tenantState is a tenant's live scheduling state.
type tenantState struct {
	policy  TenantPolicy
	current int // smooth-WRR credit
	fifo    []fairJob
	// inflight counts this tenant's jobs resident in the inner
	// executor (dispatched, not yet done/failed).
	inflight  int
	completed uint64
	failed    uint64
	rejected  uint64
}

// TenantStats is one tenant's row in a FairStats snapshot.
type TenantStats struct {
	// Waiting jobs are held in the fair queue, not yet dispatched.
	Waiting int
	// InFlight jobs are resident in the inner executor.
	InFlight int
	// Completed and Failed count terminal outcomes.
	Completed uint64
	Failed    uint64
	// Rejected counts submissions refused by quota or shed.
	Rejected uint64
}

// FairStats is a point-in-time snapshot for /metrics.
type FairStats struct {
	// Waiting and InFlight are the global totals; Slots is the
	// residency bound.
	Waiting  int
	InFlight int
	Slots    int
	// Shed counts submissions refused by the global waiting bound.
	Shed uint64
	// Tenants maps tenant name to its row (the anonymous tenant is "").
	Tenants map[string]TenantStats
}

// FairConfig configures a FairQueue.
type FairConfig struct {
	// Slots bounds how many jobs are resident in the inner executor at
	// once (values below 1 mean 1). Keep it at or below the inner
	// queue depth; the fair queue refills a slot the moment a job
	// finishes.
	Slots int
	// MaxQueue bounds the total waiting jobs across all tenants; past
	// it Submit sheds with ErrOverloaded (503 + Retry-After). 0 means
	// unlimited.
	MaxQueue int
	// Tenants pre-registers known tenants so their rows exist in Stats
	// from the start. Unknown tenants are admitted lazily under the
	// zero policy (weight 1, no limits).
	Tenants []TenantPolicy
}

// FairQueue is an Executor that multiplexes many tenants onto one
// inner executor with smooth weighted round-robin, so one tenant's
// 4096-scenario sweep cannot starve another tenant's single sim.
//
// Only Slots jobs are resident in the inner executor at a time; the
// rest wait in per-tenant FIFOs and are dispatched one per free slot,
// tenants picked by smooth WRR among those with work waiting (and
// in-flight headroom). With a 512-job sweep queued by tenant A and a
// single sim arriving from tenant B, B's job is dispatched on the next
// free slot — bounded by Slots, not by A's backlog.
//
// FairQueue is the Sink of its inner executor and forwards every event
// to the outer sink — always after releasing its own lock, preserving
// the repo-wide lock order (server → fair → inner) that keeps HTTP
// submits and executor callbacks deadlock-free.
type FairQueue struct {
	inner   Executor
	sink    Sink
	slots   int
	maxQ    int
	done    chan struct{} // dispatcher exited
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	order   []string          // stable SWRR iteration order
	owner   map[string]string // resident key -> tenant
	waiting int
	resid   int
	shed    uint64
	closing bool // no new submissions
	abandon bool // dispatcher exits without draining FIFOs
}

// NewFairQueue builds the fair-share layer. newInner builds the inner
// executor (LocalPool or Coordinator) with the FairQueue as its sink;
// events flow inner → fair → sink.
func NewFairQueue(cfg FairConfig, sink Sink, newInner func(sink Sink) Executor) *FairQueue {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	f := &FairQueue{
		sink:    sink,
		slots:   cfg.Slots,
		maxQ:    cfg.MaxQueue,
		done:    make(chan struct{}),
		tenants: make(map[string]*tenantState),
		owner:   make(map[string]string),
	}
	f.cond = sync.NewCond(&f.mu)
	for _, p := range cfg.Tenants {
		if _, dup := f.tenants[p.Name]; dup {
			continue
		}
		f.tenants[p.Name] = &tenantState{policy: p}
		f.order = append(f.order, p.Name)
	}
	f.inner = newInner(f)
	go f.dispatch()
	return f
}

// Enqueue implements Executor, submitting under the anonymous tenant.
func (f *FairQueue) Enqueue(key string, sc sim.Scenario) error {
	return f.Submit("", key, sc)
}

// Submit queues one job for a tenant. It never blocks: a stopping
// queue returns ErrClosing, a full global queue ErrOverloaded, and a
// tenant at its MaxQueued quota ErrQuotaExceeded. The caller dedups
// keys first (same contract as Executor.Enqueue).
func (f *FairQueue) Submit(tenant, key string, sc sim.Scenario) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closing {
		return ErrClosing
	}
	ts := f.tenantLocked(tenant)
	if f.maxQ > 0 && f.waiting >= f.maxQ {
		f.shed++
		ts.rejected++
		return ErrOverloaded
	}
	if q := ts.policy.MaxQueued; q > 0 && len(ts.fifo)+ts.inflight >= q {
		ts.rejected++
		return ErrQuotaExceeded
	}
	ts.fifo = append(ts.fifo, fairJob{key: key, sc: sc})
	f.waiting++
	f.cond.Broadcast()
	return nil
}

// Stop implements Executor. abandon=false dispatches every waiting job
// into the inner executor and drains it; abandon=true drops the FIFOs
// (the server's job table handles the abandoned statuses) and stops
// the inner executor after in-flight work only.
func (f *FairQueue) Stop(abandon bool) {
	f.mu.Lock()
	f.closing = true
	if abandon {
		f.abandon = true
		for _, ts := range f.tenants {
			f.waiting -= len(ts.fifo)
			ts.fifo = nil
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	<-f.done
	f.inner.Stop(abandon)
}

// Stats snapshots the queue for the metrics endpoint.
func (f *FairQueue) Stats() FairStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FairStats{
		Waiting:  f.waiting,
		InFlight: f.resid,
		Slots:    f.slots,
		Shed:     f.shed,
		Tenants:  make(map[string]TenantStats, len(f.tenants)),
	}
	for name, ts := range f.tenants {
		st.Tenants[name] = TenantStats{
			Waiting:   len(ts.fifo),
			InFlight:  ts.inflight,
			Completed: ts.completed,
			Failed:    ts.failed,
			Rejected:  ts.rejected,
		}
	}
	return st
}

// JobRunning implements Sink (forwarded; residency is unchanged).
func (f *FairQueue) JobRunning(key string) { f.sink.JobRunning(key) }

// JobRequeued implements Sink (forwarded; the job stays resident in
// the inner executor, waiting for another lease).
func (f *FairQueue) JobRequeued(key string) { f.sink.JobRequeued(key) }

// JobDone implements Sink: free the slot, then forward.
func (f *FairQueue) JobDone(key string, res sim.ScenarioResult) {
	f.release(key, true)
	f.sink.JobDone(key, res)
}

// JobFailed implements Sink: free the slot, then forward.
func (f *FairQueue) JobFailed(key string, msg string) {
	f.release(key, false)
	f.sink.JobFailed(key, msg)
}

// release returns a resident job's slot and wakes the dispatcher. Sink
// forwarding happens in the callers, after the lock is gone.
func (f *FairQueue) release(key string, ok bool) {
	f.mu.Lock()
	if tenant, resident := f.owner[key]; resident {
		delete(f.owner, key)
		ts := f.tenants[tenant]
		ts.inflight--
		f.resid--
		if ok {
			ts.completed++
		} else {
			ts.failed++
		}
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// tenantLocked returns (creating under the zero policy if needed) the
// tenant's state. Caller holds mu.
func (f *FairQueue) tenantLocked(name string) *tenantState {
	if ts, ok := f.tenants[name]; ok {
		return ts
	}
	ts := &tenantState{policy: TenantPolicy{Name: name}}
	f.tenants[name] = ts
	f.order = append(f.order, name)
	return ts
}

// pickLocked runs one round of smooth weighted round-robin over the
// tenants that are eligible right now (work waiting, in-flight
// headroom): every eligible tenant gains its weight in credit, the
// richest is picked and pays the round's total back. Over time each
// busy tenant's grant rate converges to its weight share, and the
// interleaving is smooth (no weight-sized bursts). Caller holds mu and
// has already checked for a free slot.
func (f *FairQueue) pickLocked() *tenantState {
	var (
		best  *tenantState
		total int
	)
	for _, name := range f.order {
		ts := f.tenants[name]
		if len(ts.fifo) == 0 {
			continue
		}
		if m := ts.policy.MaxInFlight; m > 0 && ts.inflight >= m {
			continue
		}
		w := ts.policy.Weight
		if w < 1 {
			w = 1
		}
		total += w
		ts.current += w
		if best == nil || ts.current > best.current {
			best = ts
		}
	}
	if best != nil {
		best.current -= total
	}
	return best
}

// dispatch is the scheduling loop: whenever a slot is free and a
// tenant is eligible, move that tenant's oldest job into the inner
// executor. Runs until Stop; abandon exits immediately, drain exits
// once every FIFO has been dispatched.
func (f *FairQueue) dispatch() {
	defer close(f.done)
	for {
		f.mu.Lock()
		var (
			job    fairJob
			tenant string
		)
		for {
			if f.abandon {
				f.mu.Unlock()
				return
			}
			if f.resid < f.slots {
				if ts := f.pickLocked(); ts != nil {
					job, ts.fifo = ts.fifo[0], ts.fifo[1:]
					tenant = ts.policy.Name
					f.waiting--
					ts.inflight++
					f.resid++
					f.owner[job.key] = tenant
					break
				}
			}
			if f.closing && f.waiting == 0 {
				f.mu.Unlock()
				return
			}
			f.cond.Wait()
		}
		f.mu.Unlock()
		// The inner Enqueue runs outside mu: executors may emit sink
		// events from their own goroutines at any time, and those
		// callbacks re-enter release().
		if err := f.inner.Enqueue(job.key, job.sc); err != nil {
			f.release(job.key, false)
			f.sink.JobFailed(job.key, "dispatch: "+err.Error())
		}
	}
}
