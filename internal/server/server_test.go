package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/report"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/store"
)

// tinyScale keeps server tests fast.
func tinyScale() harness.Scale {
	return harness.Scale{WarmupInstr: 60_000, MeasureInstr: 80_000, Samples: 1}
}

// newTestServer builds a server (optionally store-backed) plus its HTTP
// front-end, wiring cleanup into the test.
func newTestServer(t *testing.T, st *store.Store) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// postSingles submits each config as a one-core scenario.
func postSingles(t *testing.T, base string, cfgs []sim.Config) (client.SubmitScenariosResponse, *http.Response) {
	t.Helper()
	scs := make([]sim.Scenario, len(cfgs))
	for i, cfg := range cfgs {
		scs[i] = sim.SingleCore(cfg)
	}
	return postScenarios(t, base, scs)
}

// TestEndToEnd is the acceptance path: enqueue a batch over HTTP, poll
// to completion, fetch results; then restart the service on the same
// store and assert the identical batch is served from internal/store
// without re-simulating (via the store hit counter). A cold job reads
// the store once and puts once: the job table owns persistence.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, st1)

	batch := []sim.Config{
		{Workload: "Nutch", Mechanism: sim.None},
		{Workload: "Nutch", Mechanism: sim.FDIP},
		{Workload: "Streaming", Mechanism: sim.None},
	}
	out, resp := postSingles(t, ts1.URL, batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if len(out.Scenarios) != len(batch) {
		t.Fatalf("echoed %d scenarios, want %d", len(out.Scenarios), len(batch))
	}
	for i, s := range out.Scenarios {
		if s.Key == "" || s.Cores != 1 || s.Workloads[0] != batch[i].Workload {
			t.Fatalf("scenario %d echo wrong: %+v", i, s)
		}
	}
	var keys []string
	for _, s := range out.Scenarios {
		done := pollScenarioDone(t, ts1.URL, s.Key)
		if done.Result == nil || done.Result.Cores[0].Core.Instructions == 0 {
			t.Fatalf("done result empty: %+v", done)
		}
		if done.Result.Cores[0].Workload != s.Workloads[0] {
			t.Fatalf("result for %s carries workload %s", s.Key, done.Result.Cores[0].Workload)
		}
		keys = append(keys, s.Key)
	}
	if st1.Stats().Puts != uint64(len(batch)) {
		t.Fatalf("store puts = %d, want %d", st1.Stats().Puts, len(batch))
	}

	// Re-submitting in the same process dedups onto the same jobs.
	again, _ := postSingles(t, ts1.URL, batch)
	for i, s := range again.Scenarios {
		if s.Key != keys[i] {
			t.Fatalf("resubmit key %d changed: %s vs %s", i, s.Key, keys[i])
		}
	}
	if misses := st1.Stats().Misses; misses != uint64(len(batch)) {
		t.Fatalf("store misses = %d, want %d (one read per cold job)", misses, len(batch))
	}

	// Warm restart: fresh runner + fresh store handle, same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, st2)
	out2, _ := postSingles(t, ts2.URL, batch)
	for i, s := range out2.Scenarios {
		if s.Key != keys[i] {
			t.Fatalf("restart key %d drifted: %s vs %s", i, s.Key, keys[i])
		}
		pollScenarioDone(t, ts2.URL, s.Key)
	}
	s2 := st2.Stats()
	if s2.Hits != uint64(len(batch)) {
		t.Fatalf("restarted store hits = %d, want %d (batch must be served from the store)", s2.Hits, len(batch))
	}
	if s2.Puts != 0 {
		t.Fatalf("restarted store puts = %d, want 0 (nothing should re-simulate)", s2.Puts)
	}
}

func postScenarios(t *testing.T, base string, scs []sim.Scenario) (client.SubmitScenariosResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(client.SubmitScenariosRequest{Scenarios: scs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out client.SubmitScenariosResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp
}

// pollScenarioDone polls one scenario key until "done" (or the deadline).
func pollScenarioDone(t *testing.T, base, key string) ScenarioStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/scenarios/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var st ScenarioStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case StatusDone:
			return st
		case StatusFailed:
			t.Fatalf("scenario %s failed: %s", key, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("scenario %s still %q after deadline", key, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScenarioEndToEnd is the multi-core acceptance path: enqueue a
// scenario batch over HTTP, poll to completion, then restart the
// service on the same store and assert the identical batch is served
// entirely from store hits with zero new puts. Job views report cores
// in canonical scenario order (core lists are multisets — permuted
// submissions share one key), so expectations are written against the
// normalized form.
func TestScenarioEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServer(t, st1)

	batch := []sim.Scenario{
		{Cores: []sim.Config{
			{Workload: "Nutch", Mechanism: sim.None},
			{Workload: "Nutch", Mechanism: sim.FDIP},
		}},
		{Cores: []sim.Config{
			{Workload: "Streaming", Mechanism: sim.Shotgun},
			{Workload: "Nutch", Mechanism: sim.None},
		}},
	}
	canon := make([]sim.Scenario, len(batch))
	for i, sc := range batch {
		canon[i] = srv1.runner.NormalizeScenario(sc)
	}
	out, resp := postScenarios(t, ts1.URL, batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if len(out.Scenarios) != len(batch) {
		t.Fatalf("echoed %d scenarios, want %d", len(out.Scenarios), len(batch))
	}
	var keys []string
	for i, s := range out.Scenarios {
		if s.Key == "" || s.Cores != len(batch[i].Cores) {
			t.Fatalf("scenario %d echo wrong: %+v", i, s)
		}
		if s.Workloads[0] != canon[i].Cores[0].Workload {
			t.Fatalf("scenario %d workloads wrong: %+v (canonical %+v)", i, s.Workloads, canon[i].Cores)
		}
		done := pollScenarioDone(t, ts1.URL, s.Key)
		if done.Result == nil || len(done.Result.Cores) != len(batch[i].Cores) {
			t.Fatalf("scenario %d result wrong: %+v", i, done)
		}
		for c, res := range done.Result.Cores {
			if res.Core.Instructions == 0 {
				t.Fatalf("scenario %d core %d measured nothing", i, c)
			}
			if res.Workload != canon[i].Cores[c].Workload {
				t.Fatalf("scenario %d core %d carries workload %s (canonical %+v)", i, c, res.Workload, canon[i].Cores)
			}
		}
		keys = append(keys, s.Key)
	}
	if st1.Stats().Puts != uint64(len(batch)) {
		t.Fatalf("store puts = %d, want %d", st1.Stats().Puts, len(batch))
	}

	// Warm restart: fresh runner + fresh store handle, same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, st2)
	out2, _ := postScenarios(t, ts2.URL, batch)
	for i, s := range out2.Scenarios {
		if s.Key != keys[i] {
			t.Fatalf("restart key %d drifted: %s vs %s", i, s.Key, keys[i])
		}
		pollScenarioDone(t, ts2.URL, s.Key)
	}
	s2 := st2.Stats()
	if s2.Hits != uint64(len(batch)) {
		t.Fatalf("restarted store hits = %d, want %d (batch must be served from the store)", s2.Hits, len(batch))
	}
	if s2.Puts != 0 {
		t.Fatalf("restarted store puts = %d, want 0 (nothing should re-simulate)", s2.Puts)
	}

	// The scenario poll reports every core's identity (in canonical
	// order: [Nutch/fdip, Nutch/none]).
	got := pollScenarioDone(t, ts2.URL, keys[0])
	if got.Mechanisms[0] != string(sim.FDIP) || got.Mechanisms[1] != string(sim.None) {
		t.Fatalf("scenario mechanisms wrong: %+v", got.Mechanisms)
	}

	// A permutation of an already-served scenario is the same content
	// identity: submitting it dedups onto the existing key.
	swapped := sim.Scenario{Cores: []sim.Config{batch[1].Cores[1], batch[1].Cores[0]}}
	out3, _ := postScenarios(t, ts2.URL, []sim.Scenario{swapped})
	if out3.Scenarios[0].Key != keys[1] {
		t.Fatalf("permuted scenario got key %s, want %s", out3.Scenarios[0].Key, keys[1])
	}
}

func TestScenarioSubmitRejectsBadBatches(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{"},
		{"empty batch", `{"scenarios":[]}`},
		{"no cores", `{"scenarios":[{"Cores":[]}]}`},
		{"unknown workload", `{"scenarios":[{"Cores":[{"Workload":"NoSuch","Mechanism":"none"}]}]}`},
		{"too many cores", `{"scenarios":[{"Cores":[` + strings.Repeat(`{"Workload":"Oracle","Mechanism":"none"},`, 256) +
			`{"Workload":"Oracle","Mechanism":"none"}]}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("bad batches enqueued %d jobs, want 0", n)
	}
}

// TestPollServedFromStoreWithoutSubmit covers polling a key this process
// never saw: the store answers directly.
func TestPollServedFromStoreWithoutSubmit(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, st1)
	out, _ := postSingles(t, ts1.URL, []sim.Config{{Workload: "Zeus", Mechanism: sim.None}})
	key := out.Scenarios[0].Key
	pollScenarioDone(t, ts1.URL, key)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, st2)
	got := pollScenarioDone(t, ts2.URL, key) // no submit on ts2
	if got.Workloads[0] != "Zeus" || got.Result == nil {
		t.Fatalf("store-backed poll wrong: %+v", got)
	}
}

func TestSubmitRejectsBadBatches(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"empty batch", `{"scenarios":[]}`, http.StatusBadRequest},
		{"unknown workload", `{"scenarios":[{"Cores":[{"Workload":"NoSuch","Mechanism":"none"}]}]}`, http.StatusBadRequest},
		{"unknown mechanism", `{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"warp"}]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	// A batch with one bad scenario must not enqueue the good ones.
	srv, ts2 := newTestServer(t, nil)
	body := `{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"none"}]},{"Cores":[{"Workload":"NoSuch","Mechanism":"none"}]}]}`
	resp, err := http.Post(ts2.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d, want 400", resp.StatusCode)
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("mixed batch enqueued %d jobs, want 0", n)
	}
}

// TestShutdownAbandonsQueuedWork: Shutdown must not drain a deep queue
// — workers finish at most their in-flight job, and everything else
// stays queued (the process is exiting; a store + resubmit recovers).
func TestShutdownAbandonsQueuedWork(t *testing.T) {
	srv := New(Config{Scale: tinyScale(), Workers: 1})
	var batch []sim.Scenario
	var keys []string
	for _, wl := range []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2"} {
		sc := srv.runner.NormalizeScenario(sim.SingleCore(sim.Config{Workload: wl, Mechanism: sim.None}))
		batch = append(batch, sc)
		keys = append(keys, store.ScenarioKey(sc))
	}
	jobs, err := srv.enqueue(keys, batch)
	if err != nil || len(jobs) != len(batch) {
		t.Fatalf("enqueue: %v (%d jobs)", err, len(jobs))
	}
	srv.Shutdown()
	left := 0
	for _, j := range jobs {
		j.mu.Lock()
		queued := j.status == StatusQueued
		j.mu.Unlock()
		if queued {
			left++
		}
	}
	if left == 0 {
		t.Fatal("Shutdown drained the whole queue; want queued work abandoned")
	}
}

// TestRejectNewStopsIntakeWithoutStopping: RejectNew (the pre-drain
// step of graceful shutdown) must 503 new submissions while leaving the
// pool alive, and a later Close must still work.
func TestRejectNewStopsIntakeWithoutStopping(t *testing.T) {
	srv := New(Config{Scale: tinyScale(), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	srv.RejectNew()
	body := `{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none"}]}]}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "shutting down") {
		t.Fatalf("post-RejectNew submit = %d %s, want 503 shutting down", resp.StatusCode, raw)
	}
	srv.Close()
}

// TestSubmitAfterCloseRejected covers the shutdown race: a handler that
// outlives the HTTP drain deadline and submits after Close began must
// get a 503, not a send-on-closed-channel panic.
func TestSubmitAfterCloseRejected(t *testing.T) {
	srv := New(Config{Scale: tinyScale(), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	srv.Close()
	body := `{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none"}]}]}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	// The body must say the server is going away, not "retry later".
	if !strings.Contains(string(raw), "shutting down") {
		t.Fatalf("shutdown rejection misleads the client: %s", raw)
	}
	// Close is idempotent.
	srv.Close()
}

func TestPollUnknownKey(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/scenarios/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Experiments []experimentInfo `json:"experiments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) != 18 {
		t.Fatalf("listed %d experiments, want 18", len(list.Experiments))
	}

	// fig3 is a pure trace analysis: renders without timing simulation.
	resp, err = http.Get(ts.URL + "/v1/experiments/fig3")
	if err != nil {
		t.Fatal(err)
	}
	var rep report.Report
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != report.Version || rep.Scale != "tiny" {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Tables) != 1 || rep.Tables[0].ID != "fig3" || len(rep.Tables[0].Rows) != 6 {
		t.Fatalf("fig3 table wrong: %+v", rep.Tables)
	}

	for q, want := range map[string]string{
		"?format=text": "Figure 3",
		"?format=csv":  "table,fig3",
	} {
		resp, err = http.Get(ts.URL + "/v1/experiments/fig3" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(raw), want) {
			t.Fatalf("%s: output missing %q:\n%s", q, want, raw)
		}
	}

	for path, want := range map[string]int{
		"/v1/experiments/nope":          http.StatusNotFound,
		"/v1/experiments/fig3?format=x": http.StatusBadRequest,
	} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestExperimentRenderBytes: on a local-pool server a catalog render
// runs through the job table, and every format's body is byte-equal
// to the report built from a fresh runner at the same scale.
func TestExperimentRenderBytes(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	exp, _ := spec.FindExperiment("table1")
	table := exp.Table(harness.NewRunner(tinyScale()))

	rec := httptest.NewRecorder()
	client.WriteJSON(rec, report.Report{
		Version: report.Version,
		Scale:   "tiny",
		Tables:  []report.Table{report.FromStats(exp.ID, table)},
	})
	var csv bytes.Buffer
	if err := report.FromStats(exp.ID, table).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for format, want := range map[string]string{
		"json": rec.Body.String(),
		"csv":  csv.String(),
		"text": table.String(),
	} {
		resp, err := http.Get(ts.URL + "/v1/experiments/table1?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(raw) != want {
			t.Fatalf("%s: status %d, body differs from a fresh runner's:\ngot:\n%s\nwant:\n%s",
				format, resp.StatusCode, raw, want)
		}
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 6 {
		t.Fatalf("job table holds %d jobs after table1 renders, want its 6 scenarios", n)
	}
}

func TestStoreStatsEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, st)
	resp, err := http.Get(ts.URL + "/v1/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got storeStatsResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Attached {
		t.Fatal("store not reported attached")
	}

	_, ts2 := newTestServer(t, nil)
	resp, err = http.Get(ts2.URL + "/v1/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Attached {
		t.Fatal("storeless server reported a store")
	}
}

// TestQueueOverflow exercises the load-shed bound: against an executor
// that never starts a job, MaxQueue 2 admits two jobs, so a batch of
// five must shed into a 503 overloaded envelope with a Retry-After
// hint. The enqueued prefix stands and polls as queued, the shed keys
// stay out of the job table so a later resubmit is clean, and the shed
// is counted.
func TestQueueOverflow(t *testing.T) {
	srv := New(Config{
		Scale: tinyScale(), Workers: 1, MaxQueue: 2,
		NewExecutor: func(*harness.Runner, dispatch.Sink) dispatch.Executor {
			return sinkExec{}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	// Shutdown, not Close: a drain would wait forever on jobs the stub
	// executor swallowed.
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	var scs []sim.Scenario
	for _, m := range []sim.Mechanism{sim.None, sim.FDIP, sim.RDIP, sim.Boomerang, sim.Shotgun} {
		scs = append(scs, sim.SingleCore(sim.Config{Workload: "Oracle", Mechanism: m}))
	}
	body, _ := json.Marshal(client.SubmitScenariosRequest{Scenarios: scs})
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("five scenarios against MaxQueue 2: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("shed body not an envelope: %v", err)
	}
	if env.Error.Code != client.CodeOverloaded || !env.Error.Retryable {
		t.Fatalf("shed envelope wrong: %+v", env.Error)
	}
	for i, sc := range scs {
		key := store.ScenarioKey(srv.runner.NormalizeScenario(sc))
		j := srv.jobByKey(key)
		if i < 2 {
			if j == nil {
				t.Fatalf("enqueued scenario %d dropped from the job table", i)
			}
			var st ScenarioStatus
			if err := json.Unmarshal(rawPoll(t, ts.URL, key), &st); err != nil || st.Status != StatusQueued {
				t.Fatalf("enqueued scenario %d polls %+v (%v), want queued", i, st, err)
			}
		} else if j != nil {
			t.Fatalf("shed scenario %d left in the job table", i)
		}
	}
	if got := srv.queue.Stats().Shed; got != 1 {
		t.Fatalf("shed count %d, want 1", got)
	}
}
