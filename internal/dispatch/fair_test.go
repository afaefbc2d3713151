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
// order and completes jobs only when the test says so (or instantly
// with auto=true).
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

// complete finishes one granted job.
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

// newFairForTest wires a FairQueue over a stubExec.
func newFairForTest(cfg FairConfig, sink Sink, auto bool) (*FairQueue, *stubExec) {
	var stub *stubExec
	fq := NewFairQueue(cfg, sink, func(inner Sink) Executor {
		stub = newStubExec(inner, auto)
		return stub
	})
	return fq, stub
}

func TestFairQueueSingleSimNotStarvedBySweep(t *testing.T) {
	sink := newRecSink()
	fq, stub := newFairForTest(FairConfig{Slots: 2}, sink, false)
	defer fq.Stop(true)

	// Tenant A floods 100 jobs; the first two occupy both slots.
	for i := 0; i < 100; i++ {
		if err := fq.Submit("sweeper", fmt.Sprintf("a%03d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	stub.waitGrants(t, 2)

	// Tenant B's single sim arrives while A's backlog is 98 deep.
	if err := fq.Submit("solo", "b000", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}

	// Free slots one at a time; B must be granted within 2 more grants
	// (one SWRR round may tie-break to A, the next must pick B) — not
	// after A's 98 remaining jobs.
	for i := 0; i < 3; i++ {
		grants := stub.grantList()
		stub.complete(grants[i])
		got := stub.waitGrants(t, 3+i)
		for _, k := range got {
			if k == "b000" {
				return
			}
		}
	}
	t.Fatalf("tenant B's single sim not granted within bound; grants = %v", stub.grantList())
}

func TestFairQueueWeightedShares(t *testing.T) {
	sink := newRecSink()
	fq, stub := newFairForTest(FairConfig{
		Slots: 1,
		Tenants: []TenantPolicy{
			{Name: "gold", Weight: 3},
			{Name: "bronze", Weight: 1},
		},
	}, sink, false)

	// Load both backlogs completely before completing anything: the one
	// slot holds the first grant, and every completion after that runs
	// one SWRR round over two full backlogs.
	for i := 0; i < 40; i++ {
		if err := fq.Submit("gold", fmt.Sprintf("g%03d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
		if err := fq.Submit("bronze", fmt.Sprintf("b%03d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		stub.complete(stub.waitGrants(t, i+1)[i])
	}
	fq.Stop(false)
	grants := stub.grantList()
	if len(grants) != 80 {
		t.Fatalf("granted %d jobs, want 80", len(grants))
	}
	gold := 0
	for _, k := range grants[:40] {
		if k[0] == 'g' {
			gold++
		}
	}
	// Exact SWRR over a 3:1 pair grants gold three of every four while
	// both are backlogged, whether or not bronze's first job arrived
	// before the first grant.
	if gold != 30 {
		t.Errorf("gold got %d of first 40 grants, want 30 (3:1 weights)", gold)
	}
	for _, k := range grants[:4] {
		if k[0] == 'b' {
			return // bronze appears early: smooth, not bursty
		}
	}
	t.Errorf("bronze absent from first 4 grants %v — WRR not smooth", grants[:4])
}

func TestFairQueueTenantQuota(t *testing.T) {
	sink := newRecSink()
	fq, _ := newFairForTest(FairConfig{
		Slots:   1,
		Tenants: []TenantPolicy{{Name: "capped", MaxQueued: 2}},
	}, sink, false)
	defer fq.Stop(true)

	if err := fq.Submit("capped", "c1", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := fq.Submit("capped", "c2", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := fq.Submit("capped", "c3", scenarioOf(1)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third submit err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected by capped's quota.
	if err := fq.Submit("other", "o1", scenarioOf(1)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	st := fq.Stats()
	if st.Tenants["capped"].Rejected != 1 {
		t.Errorf("capped.Rejected = %d, want 1", st.Tenants["capped"].Rejected)
	}
}

func TestFairQueueGlobalShed(t *testing.T) {
	sink := newRecSink()
	fq, stub := newFairForTest(FairConfig{Slots: 1, MaxQueue: 2}, sink, false)
	defer fq.Stop(true)

	// Occupy the single slot so subsequent submissions stay waiting.
	if err := fq.Submit("t", "k0", scenarioOf(1)); err != nil {
		t.Fatal(err)
	}
	stub.waitGrants(t, 1)
	for i := 1; i <= 2; i++ {
		if err := fq.Submit("t", fmt.Sprintf("k%d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fq.Submit("t", "k3", scenarioOf(1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past MaxQueue err = %v, want ErrOverloaded", err)
	}
	if st := fq.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
}

func TestFairQueueMaxInFlightIsSchedulingCapNotError(t *testing.T) {
	sink := newRecSink()
	fq, stub := newFairForTest(FairConfig{
		Slots:   4,
		Tenants: []TenantPolicy{{Name: "slow", MaxInFlight: 1}},
	}, sink, false)
	defer fq.Stop(true)

	for i := 0; i < 3; i++ {
		if err := fq.Submit("slow", fmt.Sprintf("s%d", i), scenarioOf(1)); err != nil {
			t.Fatalf("MaxInFlight must never reject: %v", err)
		}
	}
	stub.waitGrants(t, 1)
	time.Sleep(20 * time.Millisecond) // would grant more if cap ignored
	if g := stub.grantList(); len(g) != 1 {
		t.Fatalf("granted %d with MaxInFlight=1, want 1 (%v)", len(g), g)
	}
	stub.complete("s0")
	stub.waitGrants(t, 2)
}

func TestFairQueueStopDrains(t *testing.T) {
	sink := newRecSink()
	fq, _ := newFairForTest(FairConfig{Slots: 2}, sink, true)
	for i := 0; i < 20; i++ {
		if err := fq.Submit("t", fmt.Sprintf("d%02d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	fq.Stop(false)
	if got := len(sink.doneKeys()); got != 20 {
		t.Fatalf("drain completed %d jobs, want 20", got)
	}
	if err := fq.Submit("t", "late", scenarioOf(1)); !errors.Is(err, ErrClosing) {
		t.Fatalf("submit after Stop err = %v, want ErrClosing", err)
	}
}

func TestFairQueueStopAbandonDropsWaiting(t *testing.T) {
	sink := newRecSink()
	fq, stub := newFairForTest(FairConfig{Slots: 1}, sink, false)
	for i := 0; i < 5; i++ {
		if err := fq.Submit("t", fmt.Sprintf("x%d", i), scenarioOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	stub.waitGrants(t, 1)
	done := make(chan struct{})
	go func() { fq.Stop(true); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop(abandon) hung with waiting jobs")
	}
	if g := stub.grantList(); len(g) != 1 {
		t.Errorf("abandon granted %d jobs, want the 1 pre-stop grant", len(g))
	}
}

func TestFairQueueInnerRejectFailsJob(t *testing.T) {
	sink := newRecSink()
	fq, stub := newFairForTest(FairConfig{Slots: 1}, sink, false)
	defer fq.Stop(true)
	stub.mu.Lock()
	stub.fail = ErrQueueFull
	stub.mu.Unlock()

	if err := fq.Submit("t", "doomed", scenarioOf(1)); err != nil {
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
			if st := fq.Stats(); st.InFlight != 0 {
				t.Errorf("InFlight = %d after inner reject, want 0", st.InFlight)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("inner-rejected job never reported failed")
}
