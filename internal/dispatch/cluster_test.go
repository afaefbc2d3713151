// The cluster acceptance path: a real coordinator-mode HTTP server plus
// real Workers wired through httptest, exercising lease, heartbeat,
// worker death, requeue, cross-worker dedup and warm-restart store
// serving — the distributed analogue of the server package's
// TestEndToEnd.
package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/server"
	"shotgun/internal/sim"
	"shotgun/internal/store"
)

func clusterScale() harness.Scale {
	return harness.Scale{WarmupInstr: 60_000, MeasureInstr: 80_000, Samples: 1}
}

// fakeTime is a coarse manual clock shared by the coordinator; workers
// run on real time (heartbeat tickers), the coordinator's lease expiry
// runs on this.
type fakeTime struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeTime) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeTime) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// cluster is one in-process coordinator node.
type cluster struct {
	srv   *server.Server
	coord *dispatch.Coordinator
	ts    *httptest.Server
}

// newCluster boots a coordinator-mode server over st with a fake clock.
func newCluster(t *testing.T, st *store.Store, clk *fakeTime) *cluster {
	t.Helper()
	var coord *dispatch.Coordinator
	srv := server.New(server.Config{
		Scale:     clusterScale(),
		ScaleName: "tiny",
		Workers:   1,
		Store:     st,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			coord = dispatch.NewCoordinator(dispatch.CoordinatorConfig{
				LeaseTTL: time.Minute,
				Sink:     sink,
				Now:      clk.Now,
			})
			return coord
		},
	})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })
	return &cluster{srv: srv, coord: coord, ts: ts}
}

// startWorker runs a Worker against the cluster until ctx cancels.
func startWorker(t *testing.T, cl *cluster, id string, ctx context.Context, onLease func([]string)) chan struct{} {
	t.Helper()
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Coordinator: cl.ts.URL,
		ID:          id,
		Poll:        10 * time.Millisecond,
		OnLease:     onLease,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return done
}

func submitScenarios(t *testing.T, base string, scs []sim.Scenario) []string {
	t.Helper()
	body, err := json.Marshal(map[string][]sim.Scenario{"scenarios": scs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var out struct {
		Scenarios []struct {
			Key    string `json:"key"`
			Status string `json:"status"`
		} `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(out.Scenarios))
	for i, s := range out.Scenarios {
		keys[i] = s.Key
	}
	return keys
}

// scenarioStatus polls one key once.
func scenarioStatus(t *testing.T, base, key string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/scenarios/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status == server.StatusFailed {
		t.Fatalf("job %s failed: %s", key, st.Error)
	}
	return st.Status
}

func waitDone(t *testing.T, base, key string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for scenarioStatus(t, base, key) != server.StatusDone {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed", key)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterFailoverAndDedup is the failover acceptance test: a
// 1-coordinator, 2-worker cluster where one worker dies mid-lease. The
// dead worker's job must be requeued after lease expiry and completed
// by the survivor; no scenario may be simulated twice (store put count
// == unique keys); and a restarted cluster must serve the whole batch
// from the store without leasing anything.
func TestClusterFailoverAndDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeTime{t: time.Unix(1_700_000_000, 0)}
	cl := newCluster(t, st, clk)

	// Three submissions, two unique identities: the third is a per-core
	// permutation of the second, so it dedups onto the same key.
	soloCfg := sim.Config{Workload: "Nutch", Mechanism: sim.None}
	duo := sim.Scenario{Cores: []sim.Config{
		{Workload: "Nutch", Mechanism: sim.None},
		{Workload: "Streaming", Mechanism: sim.FDIP},
	}}
	duoSwapped := sim.Scenario{Cores: []sim.Config{duo.Cores[1], duo.Cores[0]}}
	keys := submitScenarios(t, cl.ts.URL, []sim.Scenario{sim.SingleCore(soloCfg), duo, duoSwapped})
	if keys[1] != keys[2] {
		t.Fatalf("permuted scenario has its own key: %s vs %s", keys[1], keys[2])
	}
	uniqueKeys := 2

	// Worker "doomed" leases the first job and dies before simulating:
	// cancel its context from inside the lease callback.
	doomedCtx, killDoomed := context.WithCancel(context.Background())
	var doomedKey string
	var leaseOnce sync.Once
	doomedDone := startWorker(t, cl, "doomed", doomedCtx, func(leased []string) {
		leaseOnce.Do(func() {
			doomedKey = leased[0]
			killDoomed()
		})
	})
	select {
	case <-doomedDone:
	case <-time.After(30 * time.Second):
		t.Fatal("doomed worker did not die")
	}
	if doomedKey == "" {
		t.Fatal("doomed worker never leased")
	}
	if s := cl.coord.Stats(); s.InFlight != 1 {
		t.Fatalf("dead worker's lease not held: %+v", s)
	}

	// The survivor picks up everything else...
	survivorCtx, stopSurvivor := context.WithCancel(context.Background())
	defer stopSurvivor()
	survivorDone := startWorker(t, cl, "survivor", survivorCtx, nil)
	for _, key := range keys {
		if key != doomedKey {
			waitDone(t, cl.ts.URL, key)
		}
	}
	// ...but not the dead worker's job, whose lease is still live.
	if got := scenarioStatus(t, cl.ts.URL, doomedKey); got == server.StatusDone {
		t.Fatal("leased job completed while its lease was held by a dead worker")
	}

	// Past the TTL, the coordinator requeues it and the survivor
	// finishes the batch.
	clk.Advance(2 * time.Minute)
	waitDone(t, cl.ts.URL, doomedKey)

	stopSurvivor()
	select {
	case <-survivorDone:
	case <-time.After(30 * time.Second):
		t.Fatal("survivor did not exit")
	}

	// No scenario was simulated twice: one store put per unique key.
	if puts := st.Stats().Puts; puts != uint64(uniqueKeys) {
		t.Fatalf("store puts = %d, want %d (a scenario was simulated twice or lost)", puts, uniqueKeys)
	}
	cs := cl.coord.Stats()
	if cs.Requeued < 1 {
		t.Fatalf("worker death never requeued: %+v", cs)
	}
	if cs.Completed != uint64(uniqueKeys) {
		t.Fatalf("completed = %d, want %d: %+v", cs.Completed, uniqueKeys, cs)
	}

	// Warm restart of the whole cluster on the same store: the batch is
	// served straight from records — born done, nothing enqueued,
	// nothing leased, no worker needed.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := newCluster(t, st2, clk)
	keys2 := submitScenarios(t, cl2.ts.URL, []sim.Scenario{sim.SingleCore(soloCfg), duo, duoSwapped})
	for i, key := range keys2 {
		if key != keys[i] {
			t.Fatalf("restart key %d drifted: %s vs %s", i, key, keys[i])
		}
		if got := scenarioStatus(t, cl2.ts.URL, key); got != server.StatusDone {
			t.Fatalf("restarted cluster did not serve %s from the store (status %s)", key, got)
		}
	}
	if s := cl2.coord.Stats(); s.Enqueued != 0 || s.Leased != 0 {
		t.Fatalf("restarted cluster leased work it already had: %+v", s)
	}
	if hits := st2.Stats().Hits; hits != uint64(uniqueKeys) {
		t.Fatalf("restart store hits = %d, want %d", hits, uniqueKeys)
	}
}

// TestNoLockInversionUnderChurn is the deadlock regression test for
// the server↔coordinator lock pair: submits (job-table lock → lease-
// table lock) race against lease/heartbeat/complete traffic with
// constantly expiring leases (lease-table lock → Sink → job-table
// lock if the coordinator ever emitted under its mutex). The original
// implementation deadlocked here within seconds; the fix defers every
// Sink call until the coordinator's lock is released. The test fails
// by watchdog timeout, not by assertion.
func TestNoLockInversionUnderChurn(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeTime{t: time.Unix(1_700_000_000, 0)}
	cl := newCluster(t, st, clk)

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Expiry pressure: every leased job's TTL blows within ~2ms of
	// being granted, so reapLocked constantly requeues (Sink traffic
	// from inside the lease table).
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(90 * time.Second)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Worker pressure: raw lease/heartbeat/complete against the wire,
	// completing whatever is granted with shape-correct results.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(cl.ts.URL+"/v1/lease", "application/json",
				bytes.NewReader([]byte(`{"worker":"churn","max":4}`)))
			if err != nil {
				continue
			}
			var lr struct {
				Jobs []struct {
					Key      string       `json:"key"`
					Scenario sim.Scenario `json:"scenario"`
				} `json:"jobs"`
			}
			json.NewDecoder(resp.Body).Decode(&lr)
			resp.Body.Close()
			for _, jb := range lr.Jobs {
				http.Post(cl.ts.URL+"/v1/heartbeat", "application/json",
					bytes.NewReader([]byte(`{"worker":"churn","keys":["`+jb.Key+`"]}`)))
				body, _ := json.Marshal(map[string]any{
					"worker": "churn", "key": jb.Key,
					"result": sim.ScenarioResult{Cores: make([]sim.Result, len(jb.Scenario.Cores))},
				})
				if resp, err := http.Post(cl.ts.URL+"/v1/complete", "application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	// Submit pressure: 60 batches of distinct jobs from the main
	// goroutine (each submit holds the job-table lock while calling
	// Coordinator.Enqueue).
	for i := 0; i < 60; i++ {
		sc := sim.Scenario{Cores: []sim.Config{
			{Workload: "Oracle", Mechanism: sim.None, BTBEntries: 1024 + i},
		}}
		body, _ := json.Marshal(map[string][]sim.Scenario{"scenarios": {sc}})
		resp, err := http.Post(cl.ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}

	close(stop)
	done := make(chan struct{})
	go func() { churn.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("churn goroutines wedged: server/coordinator lock inversion")
	}
}

// TestClusterWorkerPushesRealResults: a single worker drives a leased
// multi-core scenario end to end and the server's poll endpoint serves
// the per-core results the worker actually simulated.
func TestClusterWorkerPushesRealResults(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeTime{t: time.Unix(1_700_000_000, 0)}
	cl := newCluster(t, st, clk)

	duo := sim.Scenario{Cores: []sim.Config{
		{Workload: "Nutch", Mechanism: sim.Shotgun},
		{Workload: "Nutch", Mechanism: sim.None},
	}}
	keys := submitScenarios(t, cl.ts.URL, []sim.Scenario{duo})

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	startWorker(t, cl, "w1", ctx, nil)
	waitDone(t, cl.ts.URL, keys[0])

	resp, err := http.Get(cl.ts.URL + "/v1/scenarios/" + keys[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Result *sim.ScenarioResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || len(got.Result.Cores) != 2 {
		t.Fatalf("result shape wrong: %+v", got.Result)
	}
	for i, res := range got.Result.Cores {
		if res.Core.Instructions == 0 {
			t.Fatalf("core %d measured nothing", i)
		}
	}
	// The worker's record is in the coordinator's store.
	if st.Stats().Puts != 1 {
		t.Fatalf("store puts = %d, want 1", st.Stats().Puts)
	}
}
