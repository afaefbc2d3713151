package dispatch

import (
	"testing"
	"time"
)

// TestReaperRequeuesWithoutTraffic is the regression test for lazy
// lease reaping: before the periodic reaper, an expired lease sat dead
// until the next worker poll touched the table — a quiet cluster never
// requeued anything. Here NO table entry point runs after expiry
// (Stats deliberately does not reap), so only the background ticker
// can flip the Requeued counter.
func TestReaperRequeuesWithoutTraffic(t *testing.T) {
	clk := newFakeClock()
	sink := newRecSink()
	c := NewCoordinator(CoordinatorConfig{
		LeaseTTL:  time.Minute,
		Sink:      sink,
		Now:       clk.Now,
		ReapEvery: time.Millisecond,
	})
	defer c.Stop(true)
	if err := c.Enqueue("k1", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	if jobs, _ := c.Lease("w", 1); len(jobs) != 1 {
		t.Fatalf("lease = %+v", jobs)
	}
	clk.Advance(2 * time.Minute)

	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Requeued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never requeued the expired lease without worker traffic")
		}
		time.Sleep(time.Millisecond)
	}
	sink.mu.Lock()
	requeued := append([]string(nil), sink.requeued...)
	sink.mu.Unlock()
	if len(requeued) != 1 || requeued[0] != "k1" {
		t.Fatalf("sink requeues = %v", requeued)
	}
	// The job is back in the queue, leaseable again.
	if jobs, _ := c.Lease("w2", 1); len(jobs) != 1 || jobs[0].Key != "k1" {
		t.Fatalf("requeued job not re-granted: %+v", jobs)
	}
}

// TestReaperDisabled: a negative ReapEvery turns the ticker off and
// expiry falls back to the lazy path (reaped on the next table touch).
func TestReaperDisabled(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, clk, nil, 0, 0)
	defer c.Stop(true)
	if err := c.Enqueue("k1", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	c.Lease("w", 1)
	clk.Advance(2 * time.Minute)
	time.Sleep(20 * time.Millisecond)
	if got := c.Stats().Requeued; got != 0 {
		t.Fatalf("requeued = %d with reaper disabled and no traffic", got)
	}
	// The next worker poll still reaps.
	if jobs, _ := c.Lease("w2", 1); len(jobs) != 1 || jobs[0].Key != "k1" {
		t.Fatalf("lazy reap on poll broken: %+v", jobs)
	}
}
