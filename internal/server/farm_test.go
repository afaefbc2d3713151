package server

// Farm tests over HTTP: the FIFO's order and depth metric, the API-key
// gate (lease routes included), the SSE sweep stream, the
// error-envelope surface, and the Prometheus exposition.

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/store"
)

// testKey is the API key of the keyed test servers.
const testKey = "key-farm-test"

// grant is one job the manual executor received.
type grant struct {
	key string
	sc  sim.Scenario
}

// manualExec is a hand-cranked one-worker executor: it records every
// job it is handed, starts them one at a time in arrival order, and
// finishes one only when the test says so, making interleavings
// deterministic instead of racing real workers.
type manualExec struct {
	sink    dispatch.Sink
	mu      sync.Mutex
	got     []grant
	started int  // grants started so far
	busy    bool // grant started-1 is running
}

func (m *manualExec) Enqueue(key string, sc sim.Scenario) error {
	m.mu.Lock()
	m.got = append(m.got, grant{key: key, sc: sc})
	m.mu.Unlock()
	m.startNext()
	return nil
}

func (m *manualExec) Stop(bool) {}

// startNext starts the oldest grant not yet started, unless one runs.
func (m *manualExec) startNext() {
	m.mu.Lock()
	if m.busy || m.started == len(m.got) {
		m.mu.Unlock()
		return
	}
	g := m.got[m.started]
	m.started++
	m.busy = true
	m.mu.Unlock()
	m.sink.JobRunning(g.key)
}

// waitGrants blocks until at least n jobs have been handed over.
func (m *manualExec) waitGrants(t *testing.T, n int) []grant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		got := append([]grant(nil), m.got...)
		m.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("executor saw %d grants, want %d", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// finish ends grant i with res, or as failed when msg is not empty,
// and starts the next grant if i was the running one.
func (m *manualExec) finish(i int, res sim.ScenarioResult, msg string) {
	m.mu.Lock()
	g := m.got[i]
	if m.busy && i == m.started-1 {
		m.busy = false
	}
	m.mu.Unlock()
	if msg != "" {
		m.sink.JobFailed(g.key, msg)
	} else {
		m.sink.JobDone(g.key, res)
	}
	m.startNext()
}

// complete finishes grant i successfully with a result of its shape.
func (m *manualExec) complete(i int) {
	m.mu.Lock()
	g := m.got[i]
	m.mu.Unlock()
	m.finish(i, sim.ScenarioResult{Cores: make([]sim.Result, len(g.sc.Cores))}, "")
}

// request performs one HTTP call, optionally with a Bearer key, and
// returns the response plus its full body.
func request(t *testing.T, method, url, apiKey, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+apiKey)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// metricValue extracts one sample from a Prometheus exposition body;
// series is the full sample name including any labels.
func metricValue(t *testing.T, body, series string) int {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatalf("series %s carries non-integer %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}

// TestBacklogRunsInOrder: one FIFO serves every submitter, so a
// single sim submitted after a 512-scenario batch runs after the whole
// batch, and /metrics counts the accepted jobs that are not running
// yet — those waiting in the FIFO and those the executor holds alike.
func TestBacklogRunsInOrder(t *testing.T) {
	var exec *manualExec
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 2,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			exec = &manualExec{sink: sink}
			return exec
		},
	})
	ts := httptest.NewServer(srv.Handler())
	// Shutdown, not Close: the manual executor still holds unfinished
	// grants and a drain would wait on them forever.
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	// A 512-scenario BTB sweep, then one single sim.
	var scs []sim.Scenario
	for i := 0; i < 512; i++ {
		scs = append(scs, sim.Scenario{Cores: []sim.Config{
			{Workload: "Nutch", Mechanism: sim.None, BTBEntries: 1024 + i},
		}})
	}
	body, err := json.Marshal(client.SubmitScenariosRequest{Scenarios: scs})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := request(t, http.MethodPost, ts.URL+"/v1/scenarios", "", string(body), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status %d: %s", resp.StatusCode, raw)
	}
	var sweepOut client.SubmitScenariosResponse
	if err := json.Unmarshal(raw, &sweepOut); err != nil {
		t.Fatal(err)
	}
	resp, raw = request(t, http.MethodPost, ts.URL+"/v1/scenarios", "",
		`{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"fdip"}]}]}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single submit status %d: %s", resp.StatusCode, raw)
	}
	var soloOut client.SubmitScenariosResponse
	if err := json.Unmarshal(raw, &soloOut); err != nil {
		t.Fatal(err)
	}

	// Every job reaches the executor in submission order.
	grants := exec.waitGrants(t, 513)
	for i, st := range sweepOut.Scenarios {
		if grants[i].key != st.Key {
			t.Fatalf("grant %d is %s, want the sweep's scenario %d (%s)", i, grants[i].key, i, st.Key)
		}
	}
	if grants[512].key != soloOut.Scenarios[0].Key {
		t.Fatal("the single sim was not handed over after the whole sweep")
	}

	scrape := func() string {
		resp, raw := request(t, http.MethodGet, ts.URL+"/metrics", "", "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		return string(raw)
	}
	// One job runs; the other 512 are accepted and not running.
	exposition := scrape()
	if got := metricValue(t, exposition, "shotgun_queue_depth"); got != 512 {
		t.Errorf("queue depth = %d, want 512", got)
	}
	if got := metricValue(t, exposition, "shotgun_inflight_jobs"); got != 1 {
		t.Errorf("in-flight jobs = %d, want 1", got)
	}
	exec.complete(0)
	exposition = scrape()
	if got := metricValue(t, exposition, "shotgun_queue_depth"); got != 511 {
		t.Errorf("queue depth after one completion = %d, want 511", got)
	}
	if got := metricValue(t, exposition, "shotgun_inflight_jobs"); got != 1 {
		t.Errorf("in-flight jobs after one completion = %d, want 1", got)
	}
	if strings.Contains(exposition, "shotgun_queue_slots") {
		t.Error("the exposition still carries shotgun_queue_slots")
	}
}

// TestAuthGate covers the API-key middleware: bad credentials 401 with
// the envelope, the key passes (case-insensitive scheme), exempt
// routes need no key, and a server without a key never asks for one.
func TestAuthGate(t *testing.T) {
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 1, APIKey: testKey})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	for name, header := range map[string]string{
		"missing header": "",
		"wrong scheme":   "Basic Zm9v",
		"unknown key":    "Bearer nope",
		"empty key":      "Bearer ",
		"key prefix":     "Bearer " + testKey[:len(testKey)-1],
		"key plus byte":  "Bearer " + testKey + "x",
	} {
		t.Run(name, func(t *testing.T) {
			hdr := map[string]string{}
			if header != "" {
				hdr["Authorization"] = header
			}
			resp, raw := request(t, http.MethodGet, ts.URL+"/v1/experiments", "", "", hdr)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("status %d, want 401", resp.StatusCode)
			}
			var env client.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("401 body not an envelope: %v (%s)", err, raw)
			}
			if env.Error.Code != client.CodeUnauthorized || env.Error.Retryable {
				t.Fatalf("envelope wrong: %+v", env.Error)
			}
		})
	}

	// The key passes; the scheme is case-insensitive per RFC 7235.
	resp, _ := request(t, http.MethodGet, ts.URL+"/v1/experiments", "", "",
		map[string]string{"Authorization": "bearer " + testKey})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lowercase-scheme auth status %d, want 200", resp.StatusCode)
	}

	// Exempt routes answer without a key; /v1/version advertises that
	// every other route needs one.
	for _, path := range []string{"/healthz", "/v1/version", "/metrics"} {
		resp, _ := request(t, http.MethodGet, ts.URL+path, "", "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without key: status %d, want 200", path, resp.StatusCode)
		}
	}
	_, raw := request(t, http.MethodGet, ts.URL+"/v1/version", "", "", nil)
	var v client.VersionInfo
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.API != "v1" || !v.AuthRequired || v.Scale != "tiny" {
		t.Fatalf("version info wrong: %+v", v)
	}
	if v.StoreFormatVersion != store.FormatVersion || v.MaxCores != sim.MaxCores {
		t.Fatalf("version compatibility fields wrong: %+v", v)
	}

	// No key: auth is off and every route answers without one.
	_, tsOpen := newTestServer(t, nil)
	resp, raw = request(t, http.MethodGet, tsOpen.URL+"/v1/version", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open version status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.AuthRequired {
		t.Fatal("a server without a key claims auth is required")
	}
	if resp, _ := request(t, http.MethodGet, tsOpen.URL+"/v1/experiments", "", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("open experiments status %d, want 200", resp.StatusCode)
	}
}

func TestBearerKey(t *testing.T) {
	cases := []struct {
		header string
		key    string
		ok     bool
	}{
		{"Bearer abc", "abc", true},
		{"bearer abc", "abc", true},
		{"BEARER abc", "abc", true},
		{"Bearer  abc ", " abc ", true},
		{"Bearer " + strings.Repeat("k", 300), strings.Repeat("k", 300), true},
		{"Bearer ", "", false},
		{"Bearer", "", false},
		{"Basic abc", "", false},
		{"", "", false},
		{"abc", "", false},
	}
	for _, tc := range cases {
		key, ok := bearerKey(tc.header)
		if key != tc.key || ok != tc.ok {
			t.Errorf("bearerKey(%q) = %q,%v want %q,%v", tc.header, key, ok, tc.key, tc.ok)
		}
	}
}

// TestLeaseRoutesNeedKey: a keyed server mounts the coordinator's
// lease routes behind the key. Unkeyed lease, heartbeat and complete
// calls each get the 401 envelope, the pushed result never reaches the
// store, and the keyed push of the same result is persisted.
func TestLeaseRoutesNeedKey(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1, Store: st, APIKey: testKey,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			return dispatch.NewCoordinator(dispatch.CoordinatorConfig{Sink: sink, ReapEvery: -1})
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	resp, raw := request(t, http.MethodPost, ts.URL+"/v1/scenarios", testKey,
		`{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none"}]}]}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var sub client.SubmitScenariosResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	key := sub.Scenarios[0].Key
	j := srv.jobByKey(key)
	// The job waits in the lease table once the FIFO hands it over.
	deadline := time.Now().Add(10 * time.Second)
	for srv.exec.(*dispatch.Coordinator).Stats().Enqueued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the lease table")
		}
		time.Sleep(time.Millisecond)
	}
	res := sim.MustRunScenario(j.sc)
	complete, err := json.Marshal(client.CompleteRequest{Worker: "w", Key: key, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct{ path, body string }{
		{"/v1/lease", `{"worker":"w","max":1}`},
		{"/v1/heartbeat", `{"worker":"w","keys":["` + key + `"]}`},
		{"/v1/complete", string(complete)},
	}
	for _, c := range calls {
		for _, header := range []string{"", "Bearer nope"} {
			resp, raw := request(t, http.MethodPost, ts.URL+c.path, "", c.body,
				map[string]string{"Authorization": header})
			var env client.ErrorEnvelope
			if resp.StatusCode != http.StatusUnauthorized || json.Unmarshal(raw, &env) != nil ||
				env.Error.Code != client.CodeUnauthorized {
				t.Fatalf("%s with Authorization %q: %d %s, want the 401 envelope", c.path, header, resp.StatusCode, raw)
			}
		}
	}
	if got := st.Stats().Puts; got != 0 {
		t.Fatalf("unkeyed calls put %d records, want 0", got)
	}
	if _, found := st.GetKey(key); found {
		t.Fatal("an unkeyed complete reached the store")
	}
	j.mu.Lock()
	status := j.status
	j.mu.Unlock()
	if status != StatusQueued {
		t.Fatalf("job status %q after unkeyed calls, want queued", status)
	}

	// With the key the same push is accepted and persisted.
	resp, raw = request(t, http.MethodPost, ts.URL+"/v1/complete", testKey, string(complete), nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"accepted":true`) {
		t.Fatalf("keyed complete: %d %s", resp.StatusCode, raw)
	}
	if _, found := st.GetKey(key); !found {
		t.Fatal("the keyed complete was not persisted")
	}
}

// TestErrorEnvelopeSurface sweeps the 4xx/5xx surface: every error
// response, on every route, must decode into the versioned envelope
// with the documented code, and its retryable flag must match the
// published table.
func TestErrorEnvelopeSurface(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		// The sims rows submit single simulations: one-core scenarios.
		{"sims bad json", "POST", "/v1/scenarios", "{", 400, client.CodeInvalidRequest},
		{"sims empty batch", "POST", "/v1/scenarios", `{"scenarios":[]}`, 400, client.CodeInvalidRequest},
		{"sims unknown workload", "POST", "/v1/scenarios", `{"scenarios":[{"Cores":[{"Workload":"NoSuch","Mechanism":"none"}]}]}`, 400, client.CodeInvalidRequest},
		{"sims given as configs", "POST", "/v1/scenarios", `{"configs":[{"Workload":"Nutch","Mechanism":"none"}]}`, 400, client.CodeInvalidRequest},
		{"scenarios no cores", "POST", "/v1/scenarios", `{"scenarios":[{"Cores":[]}]}`, 400, client.CodeInvalidRequest},
		{"scenarios nonzero skip", "POST", "/v1/scenarios", `{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none","SkipInstr":4611686018427387904,"Samples":2}]}]}`, 400, client.CodeInvalidRequest},
		{"scenarios unknown key", "GET", "/v1/scenarios/deadbeef", "", 404, client.CodeNotFound},
		// The removed single-config routes, an unknown route and a wrong
		// method all fall to the catch-all.
		{"sims removed submit", "POST", "/v1/sims", `{"configs":[{"Workload":"Nutch","Mechanism":"none"}]}`, 404, client.CodeNotFound},
		{"sims unknown key", "GET", "/v1/sims/deadbeef", "", 404, client.CodeNotFound},
		{"unknown route", "POST", "/v1/nope", "{}", 404, client.CodeNotFound},
		{"wrong method", "GET", "/v1/sweeps", "", 404, client.CodeNotFound},
		{"experiments unknown id", "GET", "/v1/experiments/nope", "", 404, client.CodeNotFound},
		{"experiments bad format", "GET", "/v1/experiments/fig3?format=x", "", 400, client.CodeInvalidRequest},
		{"sweeps bad format", "POST", "/v1/sweeps?format=xml", testSweepSpec, 400, client.CodeInvalidRequest},
		{"sweeps bad spec", "POST", "/v1/sweeps", `{"version":`, 400, client.CodeInvalidSpec},
		{"sweeps unknown table", "POST", "/v1/sweeps?tables=nope", testSweepSpec, 400, client.CodeInvalidSpec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := request(t, tc.method, ts.URL+tc.path, "", tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			var env client.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("body not an envelope: %v (%s)", err, raw)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Retryable != client.Retryable(env.Error.Code) {
				t.Fatalf("retryable flag %v disagrees with the code table", env.Error.Retryable)
			}
			if env.Error.Message == "" {
				t.Fatal("envelope message empty")
			}
		})
	}

	// shutting_down: intake rejected once RejectNew is called.
	srv2 := New(Config{Scale: tinyScale(), Workers: 1})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	srv2.RejectNew()
	resp, raw := request(t, http.MethodPost, ts2.URL+"/v1/scenarios", "",
		`{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none"}]}]}`, nil)
	var env client.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != client.CodeShuttingDown {
		t.Fatalf("post-RejectNew: %d %+v, want 503 shutting_down", resp.StatusCode, env.Error)
	}
}

// TestCoordinatorHoldsAtMostItsLeaseTable: an executor passed in
// through NewExecutor is handed at most dispatch.MaxQueueDepth jobs, so
// a backlog one deeper than the coordinator's lease table is accepted
// whole and no job fails with a full table; the extra job waits in
// the FIFO.
func TestCoordinatorHoldsAtMostItsLeaseTable(t *testing.T) {
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			return dispatch.NewCoordinator(dispatch.CoordinatorConfig{Sink: sink, ReapEvery: -1})
		},
	})
	t.Cleanup(srv.Shutdown)
	const n = dispatch.MaxQueueDepth + 1
	keys := make([]string, n)
	scs := make([]sim.Scenario, n)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
		scs[i] = sim.SingleCore(sim.Config{Workload: "Nutch", Mechanism: sim.None})
	}
	if _, err := srv.enqueue(keys, scs); err != nil {
		t.Fatalf("enqueue %d jobs: %v", n, err)
	}
	coord := srv.exec.(*dispatch.Coordinator)
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().Pending < dispatch.MaxQueueDepth {
		if time.Now().After(deadline) {
			t.Fatalf("lease table holds %d jobs, want %d", coord.Stats().Pending, dispatch.MaxQueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // an extra hand-over would fail a job here
	if cs := coord.Stats(); cs.Pending != dispatch.MaxQueueDepth || cs.Failed != 0 {
		t.Fatalf("lease table: %+v, want %d pending and none failed", cs, dispatch.MaxQueueDepth)
	}
	if qs := srv.queue.Stats(); qs.Queued != n {
		t.Fatalf("queue: %+v, want all %d jobs queued", qs, n)
	}
	for _, key := range keys {
		j := srv.jobByKey(key)
		j.mu.Lock()
		status := j.status
		j.mu.Unlock()
		if status != StatusQueued {
			t.Fatalf("job %s is %q, want queued", key, status)
		}
	}
}

// TestExperimentRenderGoesThroughExecutor: a catalog render queues its
// scenarios in the job table like a sweep — table1's six cells reach
// the executor as six grants, and the rendered table is built from the
// results the executor hands back (as a coordinator's workers would).
func TestExperimentRenderGoesThroughExecutor(t *testing.T) {
	var exec *manualExec
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			exec = &manualExec{sink: sink}
			return exec
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/experiments/table1?format=text")
		if err != nil {
			replies <- reply{err: err}
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{status: resp.StatusCode, body: raw, err: err}
	}()

	grants := exec.waitGrants(t, 6)
	for _, g := range grants {
		exec.sink.JobDone(g.key, sim.MustRunScenario(g.sc))
	}
	got := <-replies
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.status != http.StatusOK {
		t.Fatalf("render status %d: %s", got.status, got.body)
	}
	if n := len(exec.waitGrants(t, 6)); n != 6 {
		t.Fatalf("executor saw %d grants, want 6", n)
	}
	exp, _ := spec.FindExperiment("table1")
	if want := exp.Table(harness.NewRunner(tinyScale())).String(); string(got.body) != want {
		t.Fatalf("render differs from a fresh runner's:\ngot:\n%s\nwant:\n%s", got.body, want)
	}
}

// TestExperimentRenderHonorsMaxQueue: a catalog render is queued
// work, so a server that sheds past one waiting job answers table1's
// six scenarios with 503 overloaded.
func TestExperimentRenderHonorsMaxQueue(t *testing.T) {
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1, MaxQueue: 1,
		NewExecutor: func(*harness.Runner, dispatch.Sink) dispatch.Executor {
			return sinkExec{}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	resp, raw := request(t, http.MethodGet, ts.URL+"/v1/experiments/table1", "", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("render status %d (Retry-After %q), want 503 with Retry-After: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), raw)
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != client.CodeOverloaded {
		t.Fatalf("envelope code %q, want %q", env.Error.Code, client.CodeOverloaded)
	}
}

// sseMsg is one parsed server-sent event.
type sseMsg struct {
	event string
	data  string
}

// parseSSE splits a full event-stream body into events, joining each
// event's data lines with newlines (the inverse of sseEvent).
func parseSSE(t *testing.T, raw string) []sseMsg {
	t.Helper()
	var msgs []sseMsg
	for _, block := range strings.Split(raw, "\n\n") {
		if block == "" {
			continue
		}
		var m sseMsg
		var data []string
		for _, line := range strings.Split(block, "\n") {
			if rest, ok := strings.CutPrefix(line, "event: "); ok {
				m.event = rest
				continue
			}
			if rest, ok := strings.CutPrefix(line, "data: "); ok {
				data = append(data, rest)
				continue
			}
			t.Fatalf("unparseable SSE line %q", line)
		}
		m.data = strings.Join(data, "\n")
		msgs = append(msgs, m)
	}
	return msgs
}

// TestSweepSSEStream: a sweep requested with Accept: text/event-stream
// must deliver incremental progress — a "sweep" header event, one
// "scenario" event per completion — and a terminal "result" event
// whose payload is byte-identical to the blocking response for the
// same format.
func TestSweepSSEStream(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, raw := request(t, http.MethodPost, ts.URL+"/v1/sweeps?format=text", "",
		testSweepSpec, map[string]string{"Accept": "text/event-stream"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE sweep status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	msgs := parseSSE(t, string(raw))
	if len(msgs) < 3 {
		t.Fatalf("want >= 3 events (sweep, scenario..., result), got %d: %+v", len(msgs), msgs)
	}
	var head sweepProgress
	if msgs[0].event != "sweep" {
		t.Fatalf("first event %q, want sweep", msgs[0].event)
	}
	if err := json.Unmarshal([]byte(msgs[0].data), &head); err != nil {
		t.Fatal(err)
	}
	if head.Name != "sweep-e2e" || head.Total != 2 {
		t.Fatalf("sweep header wrong: %+v", head)
	}
	scenarios := 0
	for _, m := range msgs[1 : len(msgs)-1] {
		if m.event != "scenario" {
			t.Fatalf("mid-stream event %q, want scenario", m.event)
		}
		var p sweepProgress
		if err := json.Unmarshal([]byte(m.data), &p); err != nil {
			t.Fatal(err)
		}
		scenarios++
		if p.Completed != scenarios || p.Total != 2 || p.Key == "" || p.Status != StatusDone {
			t.Fatalf("scenario event %d wrong: %+v", scenarios, p)
		}
	}
	if scenarios != 2 {
		t.Fatalf("saw %d scenario events, want 2", scenarios)
	}
	last := msgs[len(msgs)-1]
	if last.event != "result" {
		t.Fatalf("terminal event %q, want result", last.event)
	}

	// Byte-identity: the streamed result equals the blocking body (the
	// resubmit dedups onto the already-done jobs, so both render the
	// same state).
	respBlock, rawBlock := postSweep(t, ts.URL, "?format=text", testSweepSpec)
	if respBlock.StatusCode != http.StatusOK {
		t.Fatalf("blocking sweep status %d", respBlock.StatusCode)
	}
	if last.data != string(rawBlock) {
		t.Fatalf("streamed result differs from blocking body:\n--- stream ---\n%q\n--- blocking ---\n%q", last.data, rawBlock)
	}
}

// TestSweepSSEAbandonSendsErrorEvent: shutdown mid-stream must emit an
// "error" event carrying the same shutting_down envelope the blocking
// path answers, not silently hang up.
func TestSweepSSEAbandonSendsErrorEvent(t *testing.T) {
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny",
		NewExecutor: func(*harness.Runner, dispatch.Sink) dispatch.Executor {
			return sinkExec{}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close() })

	done := make(chan []sseMsg, 1)
	go func() {
		resp, raw := request(t, http.MethodPost, ts.URL+"/v1/sweeps?format=text", "",
			testSweepSpec, map[string]string{"Accept": "text/event-stream"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("SSE status %d", resp.StatusCode)
		}
		done <- parseSSE(t, string(raw))
	}()
	time.Sleep(200 * time.Millisecond) // let the stream open and block
	srv.Shutdown()
	select {
	case msgs := <-done:
		if len(msgs) == 0 {
			t.Fatal("no events before shutdown")
		}
		last := msgs[len(msgs)-1]
		if last.event != "error" {
			t.Fatalf("terminal event %q, want error: %+v", last.event, msgs)
		}
		var env client.ErrorEnvelope
		if err := json.Unmarshal([]byte(last.data), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != client.CodeShuttingDown || !env.Error.Retryable {
			t.Fatalf("error event envelope wrong: %+v", env.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate on shutdown")
	}
}

// TestMetricsExposition smokes the queue, store and cluster metric
// families (TestBacklogRunsInOrder asserts the queue gauges under
// load).
func TestMetricsExposition(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fakeCluster := func() dispatch.CoordinatorStats {
		return dispatch.CoordinatorStats{Leased: 7, Requeued: 2, Expired: 1, ActiveWorkers: 3}
	}
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 2, Store: st, ClusterStats: fakeCluster})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	out, _ := postSingles(t, ts.URL, []sim.Config{{Workload: "Nutch", Mechanism: sim.None}})
	pollScenarioDone(t, ts.URL, out.Scenarios[0].Key)

	resp, raw := request(t, http.MethodGet, ts.URL+"/metrics", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	exposition := string(raw)
	if got := metricValue(t, exposition, "shotgun_store_puts_total"); got != 1 {
		t.Errorf("store puts = %d, want 1", got)
	}
	metricValue(t, exposition, "shotgun_store_hits_total")
	metricValue(t, exposition, "shotgun_store_misses_total")
	metricValue(t, exposition, "shotgun_store_records")
	if got := metricValue(t, exposition, "shotgun_lease_granted_total"); got != 7 {
		t.Errorf("lease granted = %d, want 7", got)
	}
	if got := metricValue(t, exposition, "shotgun_cluster_workers"); got != 3 {
		t.Errorf("cluster workers = %d, want 3", got)
	}
	// The one job is done: nothing is queued or running.
	for _, series := range []string{"shotgun_queue_depth", "shotgun_inflight_jobs", "shotgun_shed_total"} {
		if got := metricValue(t, exposition, series); got != 0 {
			t.Errorf("%s = %d, want 0", series, got)
		}
	}
	if metricValue(t, exposition, `shotgun_http_responses_total{class="2xx"}`) < 1 {
		t.Error("2xx responses not counted")
	}
	// Every family line is well-formed HELP/TYPE/sample.
	for _, line := range strings.Split(strings.TrimSuffix(exposition, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !strings.HasPrefix(line, "shotgun_") {
			t.Fatalf("stray exposition line %q", line)
		}
	}
}

// TestStructuredRequestLog: the access log carries method, path and
// status, for refused requests too.
func TestStructuredRequestLog(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{buf: &buf, mu: &mu}, nil))
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 1,
		APIKey: testKey, Logger: logger})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	request(t, http.MethodGet, ts.URL+"/v1/experiments", testKey, "", nil)
	request(t, http.MethodGet, ts.URL+"/v1/scenarios/nope", "", "", nil)

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("want 2 access lines, got %d: %v", len(lines), lines)
	}
	type access struct {
		Msg    string `json:"msg"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	var first, second access
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Msg != "request" || first.Method != "GET" || first.Path != "/v1/experiments" ||
		first.Status != 200 {
		t.Fatalf("first access line wrong: %+v", first)
	}
	if second.Status != http.StatusUnauthorized || second.Path != "/v1/scenarios/nope" {
		t.Fatalf("second access line wrong: %+v", second)
	}
}

// lockedWriter serializes concurrent log writes into a builder.
type lockedWriter struct {
	buf *strings.Builder
	mu  *sync.Mutex
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
