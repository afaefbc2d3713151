package server

// Multi-tenant farm tests: fair-share scheduling end to end over HTTP,
// API-key auth, the SSE sweep stream, the error-envelope surface, and
// the Prometheus exposition.

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

const (
	keyAcme = "key-acme-sweeps"
	keySolo = "key-solo-sims"
)

// testRegistry is two equal-weight tenants: acme (the sweep flood) and
// solo (the single interactive sim).
func testRegistry(t *testing.T) *TenantRegistry {
	t.Helper()
	reg, err := ParseTenants([]byte(`{"tenants":[
		{"name":"acme","key":"` + keyAcme + `"},
		{"name":"solo","key":"` + keySolo + `"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// grant is one job the manual executor received.
type grant struct {
	key string
	sc  sim.Scenario
}

// manualExec is a hand-cranked executor: it records every dispatched
// job and completes one only when the test says so, making fair-queue
// interleavings deterministic instead of racing real workers.
type manualExec struct {
	sink dispatch.Sink
	mu   sync.Mutex
	got  []grant
}

func (m *manualExec) Enqueue(key string, sc sim.Scenario) error {
	m.mu.Lock()
	m.got = append(m.got, grant{key: key, sc: sc})
	m.mu.Unlock()
	m.sink.JobRunning(key)
	return nil
}

func (m *manualExec) Stop(bool) {}

// waitGrants blocks until at least n jobs have been dispatched.
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

// complete finishes grant i successfully (idempotent).
func (m *manualExec) complete(i int) {
	m.mu.Lock()
	g := m.got[i]
	m.mu.Unlock()
	m.sink.JobDone(g.key, sim.ScenarioResult{Cores: make([]sim.Result, len(g.sc.Cores))})
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

// TestFairShareSingleSimVsBigSweep is the tenancy acceptance path:
// tenant acme floods the farm with a 512-scenario batch, tenant solo
// submits one sim, and the fair-share queue must grant solo's job
// within a bounded number of slot completions — so it finishes while
// acme's backlog still has hundreds waiting, all visible per tenant in
// /metrics.
func TestFairShareSingleSimVsBigSweep(t *testing.T) {
	var exec *manualExec
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 2, FairSlots: 2,
		Tenants: testRegistry(t),
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			exec = &manualExec{sink: sink}
			return exec
		},
	})
	ts := httptest.NewServer(srv.Handler())
	// Shutdown, not Close: the manual executor still holds unfinished
	// grants and a drain would wait on them forever.
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	// Tenant acme: 512 distinct one-core scenarios (BTB sweep).
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
	resp, raw := request(t, http.MethodPost, ts.URL+"/v1/scenarios", keyAcme, string(body), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit status %d: %s", resp.StatusCode, raw)
	}
	var sweepOut client.SubmitScenariosResponse
	if err := json.Unmarshal(raw, &sweepOut); err != nil {
		t.Fatal(err)
	}
	if len(sweepOut.Scenarios) != 512 {
		t.Fatalf("echoed %d scenarios, want 512", len(sweepOut.Scenarios))
	}
	// Both residency slots fill with acme work before solo shows up.
	grants := exec.waitGrants(t, 2)

	// Tenant solo: one interactive sim.
	resp, raw = request(t, http.MethodPost, ts.URL+"/v1/sims", keySolo,
		`{"configs":[{"Workload":"Nutch","Mechanism":"fdip"}]}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solo submit status %d: %s", resp.StatusCode, raw)
	}
	var soloOut client.SubmitSimsResponse
	if err := json.Unmarshal(raw, &soloOut); err != nil {
		t.Fatal(err)
	}
	soloKey := soloOut.Sims[0].Key
	for _, g := range grants {
		if g.key == soloKey {
			t.Fatal("solo's key granted before it was submitted")
		}
	}

	// Crank completions one at a time: the weighted round-robin must
	// grant solo's sim within a couple of freed slots, not after acme's
	// 512-job backlog.
	soloPos := -1
	for done := 0; soloPos < 0 && done < 4; done++ {
		exec.complete(done)
		grants = exec.waitGrants(t, 3+done)
		for i, g := range grants {
			if g.key == soloKey {
				soloPos = i
			}
		}
	}
	if soloPos < 0 {
		t.Fatal("solo's sim was not granted within 4 completions of a 512-job backlog — fair share is starving it")
	}
	exec.complete(soloPos)

	// Solo's sim is done while acme's sweep has barely started.
	resp, raw = request(t, http.MethodGet, ts.URL+"/v1/sims/"+soloKey, keySolo, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solo poll status %d", resp.StatusCode)
	}
	var soloSt SimStatus
	if err := json.Unmarshal(raw, &soloSt); err != nil {
		t.Fatal(err)
	}
	if soloSt.Status != StatusDone {
		t.Fatalf("solo sim status %q, want done before the sweep finishes", soloSt.Status)
	}

	// The imbalance is visible per tenant on the (unauthenticated)
	// metrics scrape.
	resp, raw = request(t, http.MethodGet, ts.URL+"/metrics", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	exposition := string(raw)
	if got := metricValue(t, exposition, `shotgun_tenant_queued{tenant="acme"}`); got < 500 {
		t.Errorf("acme queued = %d, want >= 500 still waiting", got)
	}
	if got := metricValue(t, exposition, `shotgun_tenant_completed_total{tenant="solo"}`); got != 1 {
		t.Errorf("solo completed = %d, want 1", got)
	}
	if got := metricValue(t, exposition, `shotgun_tenant_queued{tenant="solo"}`); got != 0 {
		t.Errorf("solo queued = %d, want 0", got)
	}
	if got := metricValue(t, exposition, "shotgun_queue_slots"); got != 2 {
		t.Errorf("queue slots = %d, want 2", got)
	}
	if metricValue(t, exposition, "shotgun_queue_depth") < 500 {
		t.Error("global queue depth lost the backlog")
	}
}

// TestAuthGate covers the API-key middleware: bad credentials 401 with
// the envelope, good ones pass (case-insensitive scheme), exempt
// routes need no key, and a registry-less server never asks for one.
func TestAuthGate(t *testing.T) {
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 1, Tenants: testRegistry(t)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	for name, header := range map[string]string{
		"missing header": "",
		"wrong scheme":   "Basic Zm9v",
		"unknown key":    "Bearer nope",
		"empty key":      "Bearer ",
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

	// Valid key passes; the scheme is case-insensitive per RFC 7235.
	resp, _ := request(t, http.MethodGet, ts.URL+"/v1/experiments", "", "",
		map[string]string{"Authorization": "bearer " + keyAcme})
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

	// Auth off: everything is the anonymous tenant, no key needed.
	_, tsOpen := newTestServer(t, nil)
	resp, raw = request(t, http.MethodGet, tsOpen.URL+"/v1/version", "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open version status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.AuthRequired {
		t.Fatal("registry-less server claims auth is required")
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
		{"sims bad json", "POST", "/v1/sims", "{", 400, client.CodeInvalidRequest},
		{"sims empty batch", "POST", "/v1/sims", `{"configs":[]}`, 400, client.CodeInvalidRequest},
		{"sims unknown workload", "POST", "/v1/sims", `{"configs":[{"Workload":"NoSuch","Mechanism":"none"}]}`, 400, client.CodeInvalidRequest},
		{"scenarios no cores", "POST", "/v1/scenarios", `{"scenarios":[{"Cores":[]}]}`, 400, client.CodeInvalidRequest},
		{"sims unknown key", "GET", "/v1/sims/deadbeef", "", 404, client.CodeNotFound},
		{"scenarios unknown key", "GET", "/v1/scenarios/deadbeef", "", 404, client.CodeNotFound},
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
	resp, raw := request(t, http.MethodPost, ts2.URL+"/v1/sims", "",
		`{"configs":[{"Workload":"Nutch","Mechanism":"none"}]}`, nil)
	var env client.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != client.CodeShuttingDown {
		t.Fatalf("post-RejectNew: %d %+v, want 503 shutting_down", resp.StatusCode, env.Error)
	}
}

// TestTenantQuotaOverHTTP: a tenant with MaxQueued 1 gets a 429
// quota_exceeded envelope (with Retry-After) on its second submission
// while the first is still outstanding — and an unconstrained tenant
// is unaffected.
func TestTenantQuotaOverHTTP(t *testing.T) {
	reg, err := ParseTenants([]byte(`{"tenants":[
		{"name":"capped","key":"cap-key","max_queued":1},
		{"name":"free","key":"free-key"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	var exec *manualExec
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1, FairSlots: 1, Tenants: reg,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			exec = &manualExec{sink: sink}
			return exec
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	resp, raw := request(t, http.MethodPost, ts.URL+"/v1/sims", "cap-key",
		`{"configs":[{"Workload":"Nutch","Mechanism":"none"}]}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = request(t, http.MethodPost, ts.URL+"/v1/sims", "cap-key",
		`{"configs":[{"Workload":"Nutch","Mechanism":"fdip"}]}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != client.CodeQuotaExceeded || !env.Error.Retryable {
		t.Fatalf("envelope wrong: %+v", env.Error)
	}

	// Another tenant's headroom is its own.
	resp, raw = request(t, http.MethodPost, ts.URL+"/v1/sims", "free-key",
		`{"configs":[{"Workload":"Nutch","Mechanism":"fdip"}]}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("free tenant status %d, want 202: %s", resp.StatusCode, raw)
	}

	// The capped tenant's rejection shows up in its metrics row.
	_, raw = request(t, http.MethodGet, ts.URL+"/metrics", "", "", nil)
	if got := metricValue(t, string(raw), `shotgun_tenant_rejected_total{tenant="capped"}`); got != 1 {
		t.Errorf("capped rejected = %d, want 1", got)
	}
	_ = exec // grants are never completed; Shutdown abandons them
}

// TestExperimentRenderGoesThroughExecutor: a catalog render queues its
// scenarios in the job table like a sweep — table1's six cells reach
// the executor as six grants, and the rendered table is built from the
// results the executor hands back (as a coordinator's workers would).
func TestExperimentRenderGoesThroughExecutor(t *testing.T) {
	var exec *manualExec
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1, FairSlots: 8,
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

// TestExperimentRenderHonorsTenantQuota: a catalog render is tenant
// work, so a tenant capped at one outstanding job gets 429
// quota_exceeded on a six-scenario table.
func TestExperimentRenderHonorsTenantQuota(t *testing.T) {
	reg, err := ParseTenants([]byte(`{"tenants":[{"name":"capped","key":"cap-key","max_queued":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1, FairSlots: 1, Tenants: reg,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			return &manualExec{sink: sink}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })

	resp, raw := request(t, http.MethodGet, ts.URL+"/v1/experiments/table1", "cap-key", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("render status %d, want 429: %s", resp.StatusCode, raw)
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != client.CodeQuotaExceeded {
		t.Fatalf("envelope code %q, want %q", env.Error.Code, client.CodeQuotaExceeded)
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

// TestMetricsExposition smokes the store and cluster metric families
// (the tenant families are asserted by the fairness test) and the
// anonymous-tenant labeling.
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

	out, _ := postSims(t, ts.URL, []sim.Config{{Workload: "Nutch", Mechanism: sim.None}})
	pollDone(t, ts.URL, out.Sims[0].Key)

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
	// Auth off: the work ran under the anonymous tenant label.
	if got := metricValue(t, exposition, `shotgun_tenant_completed_total{tenant="anonymous"}`); got != 1 {
		t.Errorf("anonymous completed = %d, want 1", got)
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

// TestStructuredRequestLog: the access log carries method, path,
// status and the authenticated tenant.
func TestStructuredRequestLog(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{buf: &buf, mu: &mu}, nil))
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 1,
		Tenants: testRegistry(t), Logger: logger})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	request(t, http.MethodGet, ts.URL+"/v1/experiments", keyAcme, "", nil)
	request(t, http.MethodGet, ts.URL+"/v1/sims/nope", keySolo, "", nil)

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
		Tenant string `json:"tenant"`
	}
	var first, second access
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Msg != "request" || first.Method != "GET" || first.Path != "/v1/experiments" ||
		first.Status != 200 || first.Tenant != "acme" {
		t.Fatalf("first access line wrong: %+v", first)
	}
	if second.Status != 404 || second.Tenant != "solo" {
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
