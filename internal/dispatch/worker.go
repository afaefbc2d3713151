package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"shotgun/internal/client"
)

// WorkerConfig parameterizes a Worker. It names no runner and no
// scale: a worker simulates each leased scenario exactly as the
// coordinator pinned it.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required), e.g.
	// "http://10.0.0.1:8080".
	Coordinator string
	// ID names this worker in leases; default "<hostname>-<pid>".
	ID string
	// Client issues the HTTP calls (default: 30s-timeout client).
	Client *http.Client
	// APIKey, when set, is sent as the bearer key of a coordinator
	// started with an API key.
	APIKey string
	// Poll is the idle wait between empty leases (default 500ms). Failed
	// leases back off from Poll, doubling up to 32×Poll.
	Poll time.Duration
	// Concurrency is how many leased jobs simulate at once (default 1).
	Concurrency int
	// OnLease, when non-nil, observes every granted lease before
	// simulation starts (tests use it to kill a worker mid-lease).
	OnLease func(keys []string)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Worker is the -join side of the cluster: an endless lease → simulate
// → push-back loop. It runs sim.RunScenario on each leased scenario
// exactly as the coordinator pinned it and keeps no result once pushed,
// so it holds no state the coordinator cannot reconstruct — killing a
// worker at any point loses at most the work in flight, which the lease
// TTL returns to the queue.
//
// Coordinator traffic goes through two internal/client.Clients: polls
// (lease, heartbeat) never retry — the loop itself is the retry — while
// completions retry twice, since a lost completion costs a whole
// re-simulation after lease expiry.
type Worker struct {
	cfg  WorkerConfig
	poll *client.Client // lease + heartbeat: no retry, the loop polls
	push *client.Client // complete: retried, 4xx gives up immediately
}

// NewWorker validates the config and applies defaults.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dispatch: worker needs a coordinator URL")
	}
	if cfg.ID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if len(cfg.ID) > maxWorkerID {
		return nil, fmt.Errorf("dispatch: worker id longer than %d bytes", maxWorkerID)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	opts := []client.Option{client.WithHTTPClient(cfg.Client), client.WithAPIKey(cfg.APIKey)}
	return &Worker{
		cfg:  cfg,
		poll: client.New(cfg.Coordinator, append(opts, client.WithRetries(0))...),
		push: client.New(cfg.Coordinator, append(opts, client.WithRetries(2))...),
	}, nil
}

// ID returns the worker's lease name.
func (w *Worker) ID() string { return w.cfg.ID }

// maxLeaseBackoff caps the wait after failed leases, in units of Poll.
const maxLeaseBackoff = 32

// nextLeaseWait doubles the wait after a failed lease, capped at
// maxLeaseBackoff×poll.
func nextLeaseWait(wait, poll time.Duration) time.Duration {
	return min(2*wait, maxLeaseBackoff*poll)
}

// Run leases and executes jobs until ctx is canceled. In-flight
// simulations finish and push their results (their completions use
// their own timeouts, not ctx) before Run returns, so a graceful
// worker shutdown never wastes compute.
//
// While the coordinator is unreachable, each failed lease doubles the
// wait before the next (see nextLeaseWait). An outage logs two lines:
// its first failure, and on the first lease that succeeds the number
// of leases that failed, after which polling is back at Poll.
func (w *Worker) Run(ctx context.Context) error {
	slots := make(chan struct{}, w.cfg.Concurrency)
	for i := 0; i < w.cfg.Concurrency; i++ {
		slots <- struct{}{}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	w.cfg.Logf("worker %s: joined %s", w.cfg.ID, w.cfg.Coordinator)
	wait, failed := w.cfg.Poll, 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-slots:
		}
		jobs, ttl, err := w.poll.Lease(ctx, w.cfg.ID, 1)
		if err != nil {
			slots <- struct{}{}
			if ctx.Err() != nil {
				return nil
			}
			if failed == 0 {
				w.cfg.Logf("worker %s: lease: %v (backing off)", w.cfg.ID, err)
			}
			failed++
			if !w.sleep(ctx, wait) {
				return nil
			}
			wait = nextLeaseWait(wait, w.cfg.Poll)
			continue
		}
		if failed > 0 {
			w.cfg.Logf("worker %s: coordinator reachable again after %d failed leases", w.cfg.ID, failed)
			wait, failed = w.cfg.Poll, 0
		}
		if len(jobs) == 0 {
			slots <- struct{}{}
			if !w.sleep(ctx, w.cfg.Poll) {
				return nil
			}
			continue
		}
		jb := jobs[0]
		if w.cfg.OnLease != nil {
			w.cfg.OnLease([]string{jb.Key})
		}
		if ctx.Err() != nil {
			// Killed between lease and simulation: abandon the lease
			// (the TTL will requeue it) rather than start work the
			// shutdown would only have to wait for.
			slots <- struct{}{}
			return nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { slots <- struct{}{} }()
			w.runJob(jb, ttl)
		}()
	}
}

// runJob simulates one leased scenario, heartbeating at a third of the
// TTL, and pushes the record (or the panic message) back.
func (w *Worker) runJob(jb LeasedJob, ttl time.Duration) {
	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(jb.Key, ttl, stop)

	res, errMsg := simulate(jb.Scenario)
	if errMsg != "" {
		w.cfg.Logf("worker %s: job %s failed: %s", w.cfg.ID, jb.Key, errMsg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := w.push.Complete(ctx, w.cfg.ID, jb.Key, res, errMsg); err != nil {
		// The lease will expire and another worker will redo the job;
		// nothing else to do from here.
		w.cfg.Logf("worker %s: push %s back: %v", w.cfg.ID, jb.Key, err)
		return
	}
	w.cfg.Logf("worker %s: completed %s", w.cfg.ID, jb.Key)
}

// heartbeatLoop renews the lease until stop closes. A heartbeat that
// reports the key lost stops early: the coordinator gave the job away,
// so renewing is pointless (the eventual complete is still pushed —
// whoever finishes first wins, the other sees accepted=false).
func (w *Worker) heartbeatLoop(key string, ttl time.Duration, stop <-chan struct{}) {
	period := ttl / 3
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			lost, err := w.poll.Heartbeat(context.Background(), w.cfg.ID, []string{key})
			if err != nil {
				w.cfg.Logf("worker %s: heartbeat %s: %v", w.cfg.ID, key, err)
				continue
			}
			if len(lost) > 0 {
				w.cfg.Logf("worker %s: lease on %s lost", w.cfg.ID, key)
				return
			}
		}
	}
}

// sleep waits d or until ctx cancels, reporting whether to continue.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
