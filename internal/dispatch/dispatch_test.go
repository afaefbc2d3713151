package dispatch

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"shotgun/internal/harness"
	"shotgun/internal/sim"
)

// recSink records job lifecycle events for assertions.
type recSink struct {
	mu       sync.Mutex
	running  []string
	requeued []string
	done     []string
	failed   map[string]string
	results  map[string]sim.ScenarioResult
}

func newRecSink() *recSink {
	return &recSink{failed: map[string]string{}, results: map[string]sim.ScenarioResult{}}
}

func (s *recSink) JobRunning(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running = append(s.running, key)
}

func (s *recSink) JobRequeued(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requeued = append(s.requeued, key)
}

func (s *recSink) JobDone(key string, res sim.ScenarioResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = append(s.done, key)
	s.results[key] = res
}

func (s *recSink) JobFailed(key, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed[key] = msg
}

func (s *recSink) doneKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.done...)
}

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// scenarioOf builds a normalized n-core scenario for table tests (no
// simulation runs in coordinator unit tests).
func scenarioOf(n int) sim.Scenario {
	var cores []sim.Config
	for i := 0; i < n; i++ {
		cores = append(cores, sim.Config{Workload: "Oracle", Mechanism: sim.None,
			WarmupInstr: 1000, MeasureInstr: 1000, Samples: 1})
	}
	return sim.Scenario{Cores: cores}.Normalized()
}

// resultOf fabricates a result of the right shape.
func resultOf(sc sim.Scenario) sim.ScenarioResult {
	res := sim.ScenarioResult{}
	for _, cfg := range sc.Cores {
		res.Cores = append(res.Cores, sim.Result{Workload: cfg.Workload, Mechanism: cfg.Mechanism})
	}
	return res
}

func newTestCoordinator(t *testing.T, clk *fakeClock, depth, attempts int) (*Coordinator, *recSink) {
	t.Helper()
	sink := newRecSink()
	c := NewCoordinator(CoordinatorConfig{
		LeaseTTL:    time.Minute,
		MaxAttempts: attempts,
		Sink:        sink,
		Now:         clk.Now,
	})
	if depth > 0 {
		c.depth = depth
	}
	return c, sink
}

func TestCoordinatorLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	c, sink := newTestCoordinator(t, clk, 0, 0)
	sc := scenarioOf(1)
	if err := c.Enqueue("k1", sc); err != nil {
		t.Fatal(err)
	}

	jobs, ttl := c.Lease("a", 4)
	if len(jobs) != 1 || jobs[0].Key != "k1" || ttl != time.Minute {
		t.Fatalf("lease = %+v ttl %v", jobs, ttl)
	}
	// The job is leased: nobody else gets it while the lease is live.
	if jobs, _ := c.Lease("b", 4); len(jobs) != 0 {
		t.Fatalf("double-leased: %+v", jobs)
	}

	// The worker dies (no heartbeat). Past the TTL, the next poll
	// requeues and re-grants.
	clk.Advance(time.Minute + time.Second)
	jobs, _ = c.Lease("b", 4)
	if len(jobs) != 1 || jobs[0].Key != "k1" {
		t.Fatalf("expired job not re-granted: %+v", jobs)
	}
	st := c.Stats()
	if st.Requeued != 1 || st.Leased != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if len(sink.requeued) != 1 || sink.requeued[0] != "k1" {
		t.Fatalf("sink requeues = %v", sink.requeued)
	}
}

func TestCoordinatorHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, clk, 0, 0)
	if err := c.Enqueue("k1", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	c.Lease("a", 1)

	// Two 45s waits each straddle the 60s TTL, but a heartbeat between
	// them keeps the lease alive.
	clk.Advance(45 * time.Second)
	if lost := c.Heartbeat("a", []string{"k1"}); len(lost) != 0 {
		t.Fatalf("live lease reported lost: %v", lost)
	}
	clk.Advance(45 * time.Second)
	if jobs, _ := c.Lease("b", 1); len(jobs) != 0 {
		t.Fatalf("heartbeated lease was stolen: %+v", jobs)
	}

	// A heartbeat for a key the worker does not own reports it lost.
	if lost := c.Heartbeat("b", []string{"k1", "nope"}); len(lost) != 2 {
		t.Fatalf("foreign heartbeat lost = %v, want both", lost)
	}
}

// TestCoordinatorCompletePersistsAndDedups: a key completes once. The
// coordinator persists nothing itself; the one sink JobDone is what the
// server turns into the key's one store put.
func TestCoordinatorCompletePersistsAndDedups(t *testing.T) {
	clk := newFakeClock()
	c, sink := newTestCoordinator(t, clk, 0, 0)
	sc := scenarioOf(2)
	if err := c.Enqueue("k1", sc); err != nil {
		t.Fatal(err)
	}
	c.Lease("a", 1)

	accepted, err := c.Complete("a", "k1", resultOf(sc), "")
	if err != nil || !accepted {
		t.Fatalf("complete = %v, %v", accepted, err)
	}
	// A second push of the same key is a no-op, not a second completion.
	accepted, err = c.Complete("a", "k1", resultOf(sc), "")
	if err != nil || accepted {
		t.Fatalf("dup complete = %v, %v", accepted, err)
	}
	if s := c.Stats(); s.Completed != 1 || s.DupCompletes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := sink.doneKeys(); len(got) != 1 {
		t.Fatalf("sink done twice: %v", got)
	}
}

// TestCoordinatorStaleOwnerCompleteAccepted: a worker that lost its
// lease but finished anyway still completes the job — its work is
// valid, and accepting it stops the replacement's result from being a
// wasted simulation... which then reports accepted=false and moves on.
func TestCoordinatorStaleOwnerCompleteAccepted(t *testing.T) {
	clk := newFakeClock()
	c, sink := newTestCoordinator(t, clk, 0, 0)
	sc := scenarioOf(1)
	c.Enqueue("k1", sc)
	c.Lease("a", 1)
	clk.Advance(2 * time.Minute)
	if jobs, _ := c.Lease("b", 1); len(jobs) != 1 {
		t.Fatalf("requeue to b failed: %+v", jobs)
	}
	// a (stale) finishes first: accepted.
	if accepted, err := c.Complete("a", "k1", resultOf(sc), ""); err != nil || !accepted {
		t.Fatalf("stale complete = %v, %v", accepted, err)
	}
	// b's redundant result: dropped.
	if accepted, err := c.Complete("b", "k1", resultOf(sc), ""); err != nil || accepted {
		t.Fatalf("redundant complete = %v, %v", accepted, err)
	}
	if got := sink.doneKeys(); len(got) != 1 {
		t.Fatalf("sink done %d times, want 1", len(got))
	}
}

func TestCoordinatorAttemptBudgetFailsJob(t *testing.T) {
	clk := newFakeClock()
	c, sink := newTestCoordinator(t, clk, 0, 2)
	c.Enqueue("k1", scenarioOf(1))
	for i := 0; i < 2; i++ {
		if jobs, _ := c.Lease("a", 1); len(jobs) != 1 {
			t.Fatalf("attempt %d not granted", i)
		}
		clk.Advance(2 * time.Minute)
	}
	// Second expiry exhausts the budget on the next table scan.
	c.Lease("a", 1)
	sink.mu.Lock()
	msg, failed := sink.failed["k1"]
	sink.mu.Unlock()
	if !failed || !strings.Contains(msg, "expired") {
		t.Fatalf("job not failed after budget: %q %v", msg, failed)
	}
	if s := c.Stats(); s.Expired != 1 || s.Pending != 0 || s.InFlight != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCoordinatorRejectsWrongShapeResult(t *testing.T) {
	clk := newFakeClock()
	c, sink := newTestCoordinator(t, clk, 0, 0)
	sc := scenarioOf(2)
	c.Enqueue("k1", sc)
	c.Lease("a", 1)
	_, err := c.Complete("a", "k1", sim.ScenarioResult{Cores: make([]sim.Result, 1)}, "")
	if err == nil {
		t.Fatal("wrong-shape result accepted")
	}
	// The job survives: back in the queue, not lost and not done.
	if jobs, _ := c.Lease("b", 1); len(jobs) != 1 || jobs[0].Key != "k1" {
		t.Fatalf("malformed push lost the job: %+v", jobs)
	}
	if len(sink.doneKeys()) != 0 {
		t.Fatal("malformed push marked the job done")
	}
}

func TestCoordinatorWorkerErrorFailsJob(t *testing.T) {
	clk := newFakeClock()
	c, sink := newTestCoordinator(t, clk, 0, 0)
	c.Enqueue("k1", scenarioOf(1))
	c.Lease("a", 1)
	if accepted, err := c.Complete("a", "k1", sim.ScenarioResult{}, "engine exploded"); err != nil || !accepted {
		t.Fatalf("error complete = %v, %v", accepted, err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.failed["k1"] != "engine exploded" {
		t.Fatalf("failure not propagated: %q", sink.failed["k1"])
	}
}

func TestCoordinatorQueueLimits(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, clk, 1, 0)
	if err := c.Enqueue("k1", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue("k2", scenarioOf(1)); err != ErrQueueFull {
		t.Fatalf("overflow = %v, want ErrQueueFull", err)
	}
	// Leased jobs still count toward the backlog bound.
	c.Lease("a", 1)
	if err := c.Enqueue("k2", scenarioOf(1)); err != ErrQueueFull {
		t.Fatalf("leased slot not counted: %v", err)
	}
	c.Stop(true)
	if err := c.Enqueue("k3", scenarioOf(1)); err != ErrClosing {
		t.Fatalf("post-stop = %v, want ErrClosing", err)
	}
	// A halted coordinator grants no further leases.
	if jobs, _ := c.Lease("a", 1); len(jobs) != 0 {
		t.Fatalf("halted coordinator leased: %+v", jobs)
	}
}

// TestCoordinatorPrunesDeadWorkers: worker-liveness entries are
// dropped once a worker has been silent past the Stats activeness
// window, so churning unique worker names cannot grow memory without
// bound.
func TestCoordinatorPrunesDeadWorkers(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, clk, 0, 0)
	for i := 0; i < 50; i++ {
		c.Lease(fmt.Sprintf("transient-%d", i), 1)
	}
	if s := c.Stats(); s.ActiveWorkers != 50 {
		t.Fatalf("active workers = %d, want 50", s.ActiveWorkers)
	}
	clk.Advance(3 * time.Minute) // past the 2*TTL window
	c.Lease("steady", 1)         // any table access reaps
	c.mu.Lock()
	n := len(c.lastSeen)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("lastSeen holds %d entries after prune, want 1", n)
	}
	if s := c.Stats(); s.ActiveWorkers != 1 {
		t.Fatalf("active workers = %d, want 1", s.ActiveWorkers)
	}
}

// tinyScale keeps local-pool tests fast.
func tinyScale() harness.Scale {
	return harness.Scale{WarmupInstr: 60_000, MeasureInstr: 80_000, Samples: 1}
}

func TestLocalPoolRunsJobs(t *testing.T) {
	runner := harness.NewRunnerWorkers(tinyScale(), 2)
	sink := newRecSink()
	p := NewLocalPool(runner, sink, 8)
	sc := runner.NormalizeScenario(sim.SingleCore(sim.Config{Workload: "Nutch", Mechanism: sim.None}))
	if err := p.Enqueue("k1", sc); err != nil {
		t.Fatal(err)
	}
	p.Stop(false) // drain
	if got := sink.doneKeys(); len(got) != 1 || got[0] != "k1" {
		t.Fatalf("done = %v", got)
	}
	sink.mu.Lock()
	res := sink.results["k1"]
	sink.mu.Unlock()
	if len(res.Cores) != 1 || res.Cores[0].Core.Instructions == 0 {
		t.Fatalf("result empty: %+v", res)
	}
	if err := p.Enqueue("k2", sc); err != ErrClosing {
		t.Fatalf("post-stop enqueue = %v", err)
	}
}

func TestLocalPoolQueueFull(t *testing.T) {
	runner := harness.NewRunnerWorkers(tinyScale(), 1)
	sink := newRecSink()
	p := NewLocalPool(runner, sink, 1)
	defer p.Stop(true)
	sc := runner.NormalizeScenario(sim.SingleCore(sim.Config{Workload: "Oracle", Mechanism: sim.None}))
	// One job may be in flight; after the buffer fills, overflow must
	// answer ErrQueueFull rather than block.
	overflowed := false
	for i := 0; i < 4; i++ {
		if err := p.Enqueue("k", sc); err == ErrQueueFull {
			overflowed = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !overflowed {
		t.Fatal("depth-1 queue never overflowed")
	}
}
