package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shotgun/internal/sim"
)

// stubExec is a hand-cranked inner executor: it records the grant
// order and runs and completes jobs only when the test says so (or
// instantly with auto=true).
type stubExec struct {
	mu      sync.Mutex
	sink    Sink
	auto    bool
	grants  []string
	open    map[string]bool
	fail    error         // when set, Enqueue returns it
	granted chan struct{} // closed and replaced on every grant
}

func newStubExec(sink Sink, auto bool) *stubExec {
	return &stubExec{sink: sink, auto: auto, open: map[string]bool{}, granted: make(chan struct{})}
}

func (s *stubExec) Enqueue(key string, sc sim.Scenario) error {
	s.mu.Lock()
	if s.fail != nil {
		err := s.fail
		s.mu.Unlock()
		return err
	}
	s.grants = append(s.grants, key)
	s.open[key] = true
	close(s.granted)
	s.granted = make(chan struct{})
	auto := s.auto
	s.mu.Unlock()
	if auto {
		s.complete(key)
	}
	return nil
}

func (s *stubExec) Stop(abandon bool) {}

// complete runs and finishes one granted job.
func (s *stubExec) complete(key string) {
	s.mu.Lock()
	if !s.open[key] {
		s.mu.Unlock()
		return
	}
	delete(s.open, key)
	s.mu.Unlock()
	s.sink.JobRunning(key)
	s.sink.JobDone(key, sim.ScenarioResult{})
}

func (s *stubExec) grantList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.grants...)
}

// waitGrants blocks until the stub has granted at least n jobs.
func (s *stubExec) waitGrants(t *testing.T, n int) []string {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		g := append([]string(nil), s.grants...)
		next := s.granted
		s.mu.Unlock()
		if len(g) >= n {
			return g
		}
		select {
		case <-next:
		case <-timeout:
			t.Fatalf("timed out waiting for %d grants (have %v)", n, g)
		}
	}
}

// newQueueForTest wires a Queue over a stubExec.
func newQueueForTest(resident, maxQueue int, sink Sink, auto bool) (*Queue, *stubExec) {
	var stub *stubExec
	q := NewQueue(resident, maxQueue, sink, func(inner Sink) Executor {
		stub = newStubExec(inner, auto)
		return stub
	})
	return q, stub
}

// TestQueueFIFOOrder: jobs reach the executor in submission order, at
// most resident at a time, the next one the moment one finishes.
func TestQueueFIFOOrder(t *testing.T) {
	q, stub := newQueueForTest(2, 0, newRecSink(), false)
	defer q.Stop(true)
	var keys []string
	for i := 0; i < 40; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
		if err := q.Enqueue(keys[i], scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	stub.waitGrants(t, 2)
	time.Sleep(10 * time.Millisecond) // a third grant would show up here
	if g := stub.grantList(); len(g) != 2 {
		t.Fatalf("granted %d jobs with resident 2, want 2 (%v)", len(g), g)
	}
	for i := range keys {
		stub.complete(keys[i])
		if i+3 <= len(keys) {
			stub.waitGrants(t, i+3)
		}
	}
	got := stub.grantList()
	if len(got) != len(keys) {
		t.Fatalf("granted %d jobs, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("grant %d is %s, want %s (order %v)", i, got[i], keys[i], got)
		}
	}
}

// TestQueueAcceptsBacklogPastMaxQueueDepth: with no -max-queue, a
// backlog deeper than the coordinator's lease table is accepted, and
// every job reaches the table and completes without ErrQueueFull.
func TestQueueAcceptsBacklogPastMaxQueueDepth(t *testing.T) {
	const jobs = MaxQueueDepth + 100
	sink := newRecSink()
	var coord *Coordinator
	q := NewQueue(MaxQueueDepth, 0, sink, func(inner Sink) Executor {
		coord = NewCoordinator(CoordinatorConfig{Sink: inner, ReapEvery: -1})
		return coord
	})
	defer q.Stop(true)
	sc := scenarioOf(1)
	for i := 0; i < jobs; i++ {
		if err := q.Enqueue(fmt.Sprintf("j%05d", i), sc); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := q.Stats(); st.Queued != jobs {
		t.Fatalf("Queued = %d, want %d", st.Queued, jobs)
	}
	deadline := time.Now().Add(30 * time.Second)
	for done := 0; done < jobs; {
		leased, _ := coord.Lease("w", maxLeaseBatch)
		for _, j := range leased {
			if accepted, err := coord.Complete("w", j.Key, resultOf(j.Scenario), ""); err != nil || !accepted {
				t.Fatalf("complete %s: accepted %v err %v", j.Key, accepted, err)
			}
		}
		done += len(leased)
		if len(leased) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d jobs reached the lease table", done, jobs)
			}
			time.Sleep(time.Millisecond)
		}
	}
	sink.mu.Lock()
	failed, done := len(sink.failed), len(sink.done)
	sink.mu.Unlock()
	if failed != 0 || done != jobs {
		t.Fatalf("%d done and %d failed (%v), want %d done", done, failed, sink.failed, jobs)
	}
	if st := q.Stats(); st.Queued != 0 || st.Running != 0 || st.Shed != 0 {
		t.Fatalf("stats after the backlog drained: %+v", st)
	}
}

// TestQueueShed: MaxQueue bounds accepted jobs that are not running.
// Past it Enqueue sheds with ErrOverloaded and counts it, and a job
// that starts running frees its place.
func TestQueueShed(t *testing.T) {
	q, stub := newQueueForTest(1, 2, newRecSink(), false)
	defer q.Stop(true)
	for _, key := range []string{"k0", "k1"} {
		if err := q.Enqueue(key, scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Enqueue("k2", scenarioOf(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past MaxQueue err = %v, want ErrOverloaded", err)
	}
	if st := q.Stats(); st.Shed != 1 || st.Queued != 2 {
		t.Fatalf("stats = %+v, want 2 queued and 1 shed", st)
	}
	stub.waitGrants(t, 1)
	q.JobRunning("k0")
	if err := q.Enqueue("k2", scenarioOf(1)); err != nil {
		t.Fatalf("submit after a job started: %v", err)
	}
}

// TestQueueDepthCountsNotRunning: Queued counts the FIFO and the jobs
// the executor holds but has not started; a requeued lease counts
// again, and a finished job leaves both counts.
func TestQueueDepthCountsNotRunning(t *testing.T) {
	q, stub := newQueueForTest(2, 0, newRecSink(), false)
	defer q.Stop(true)
	for _, key := range []string{"a", "b", "c"} {
		if err := q.Enqueue(key, scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	stub.waitGrants(t, 2)
	check := func(queued, running int) {
		t.Helper()
		if st := q.Stats(); st.Queued != queued || st.Running != running {
			t.Fatalf("stats = %+v, want %d queued and %d running", st, queued, running)
		}
	}
	check(3, 0) // two held by the executor, one in the FIFO
	q.JobRunning("a")
	check(2, 1)
	q.JobRunning("a") // a repeated event changes nothing
	check(2, 1)
	q.JobRequeued("a")
	check(3, 0)
	stub.complete("a")
	stub.waitGrants(t, 3)
	check(2, 0)
	q.JobRunning("unknown") // not held: ignored
	check(2, 0)
}

func TestQueueStopDrains(t *testing.T) {
	sink := newRecSink()
	q, _ := newQueueForTest(2, 0, sink, true)
	for i := 0; i < 20; i++ {
		if err := q.Enqueue(fmt.Sprintf("d%02d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	q.Stop(false)
	if got := len(sink.doneKeys()); got != 20 {
		t.Fatalf("drain completed %d jobs, want 20", got)
	}
	if err := q.Enqueue("late", scenarioOf(1)); !errors.Is(err, ErrClosing) {
		t.Fatalf("submit after Stop err = %v, want ErrClosing", err)
	}
}

func TestQueueStopAbandonDropsWaiting(t *testing.T) {
	q, stub := newQueueForTest(1, 0, newRecSink(), false)
	for i := 0; i < 5; i++ {
		if err := q.Enqueue(fmt.Sprintf("x%d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	stub.waitGrants(t, 1)
	done := make(chan struct{})
	go func() { q.Stop(true); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop(abandon) hung with waiting jobs")
	}
	if g := stub.grantList(); len(g) != 1 {
		t.Errorf("abandon granted %d jobs, want the 1 pre-stop grant", len(g))
	}
	if st := q.Stats(); st.Queued != 1 {
		t.Errorf("Queued = %d after abandon, want the 1 job the executor holds", st.Queued)
	}
}

func TestQueueInnerRejectFailsJob(t *testing.T) {
	sink := newRecSink()
	q, stub := newQueueForTest(1, 0, sink, false)
	defer q.Stop(true)
	stub.mu.Lock()
	stub.fail = ErrQueueFull
	stub.mu.Unlock()

	if err := q.Enqueue("doomed", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sink.mu.Lock()
		msg, failed := sink.failed["doomed"]
		sink.mu.Unlock()
		if failed {
			if msg == "" {
				t.Error("failure message empty")
			}
			if st := q.Stats(); st.Queued != 0 || st.Running != 0 {
				t.Errorf("stats = %+v after inner reject, want empty", st)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("inner-rejected job never reported failed")
}
