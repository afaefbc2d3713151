package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shotgun/internal/client"
)

func TestNextLeaseWaitDoublesToCap(t *testing.T) {
	const poll = 10 * time.Millisecond
	want := []time.Duration{2, 4, 8, 16, 32, 32, 32}
	wait := poll
	for i, w := range want {
		wait = nextLeaseWait(wait, poll)
		if wait != w*poll {
			t.Fatalf("wait after failure %d = %v, want %v", i+1, wait, w*poll)
		}
	}
}

// TestWorkerLeaseBackoff runs a Worker against a coordinator that
// answers 503 to its first leases and then recovers with empty leases:
// failed leases must space out geometrically, the outage must log one
// line when it starts and one when it ends, and polling must return to
// Poll once a lease succeeds.
func TestWorkerLeaseBackoff(t *testing.T) {
	const (
		poll      = 10 * time.Millisecond
		outage    = 6 // failed leases: waits 1, 2, 4, 8, 16, 32 × poll
		recovered = 5 // successful leases to observe after the outage
	)
	var (
		mu       sync.Mutex
		attempts []time.Time
		logs     []string
	)
	done := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		attempts = append(attempts, time.Now())
		switch n := len(attempts); {
		case n <= outage:
			client.WriteError(w, http.StatusServiceUnavailable, "", "coordinator down")
		default:
			if n == outage+recovered {
				close(done)
			}
			client.EncodeJSON(w, client.LeaseResponse{TTLMillis: 1000})
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	wk, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL,
		ID:          "w1",
		Poll:        poll,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		wk.Run(ctx)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never leased again after the outage")
	}
	cancel()
	<-stopped

	mu.Lock()
	defer mu.Unlock()
	// A failed lease n (from 1) is followed by a wait of 2^(n-1)×poll,
	// so the gap before attempt n+1 is at least that long.
	for n := 1; n <= outage; n++ {
		gap := attempts[n].Sub(attempts[n-1])
		if floor := poll << (n - 1); gap < floor {
			t.Errorf("gap after failed lease %d = %v, want at least %v", n, gap, floor)
		}
	}
	// Without the reset, each of these gaps would be 32×poll; allow
	// generous scheduling noise above the reset poll.
	span := attempts[outage+recovered-1].Sub(attempts[outage])
	if limit := time.Duration(recovered-1) * 16 * poll; span > limit {
		t.Errorf("%d leases after recovery took %v, want under %v: backoff not reset", recovered, span, limit)
	}
	var outageLogs []string
	for _, l := range logs {
		if !strings.Contains(l, "joined") {
			outageLogs = append(outageLogs, l)
		}
	}
	if len(outageLogs) != 2 ||
		!strings.Contains(outageLogs[0], "lease") ||
		!strings.Contains(outageLogs[1], fmt.Sprintf("after %d failed leases", outage)) {
		t.Fatalf("outage logged %q, want its first failure and one recovery line", outageLogs)
	}
}
