package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/sim"
	"shotgun/internal/store"
)

// sixteenScenarios is a farm-sized submit: four workloads under four
// delivery mechanisms, one core each.
func sixteenScenarios() []sim.Scenario {
	var scs []sim.Scenario
	for _, w := range []string{"Nutch", "Streaming", "Apache", "Zeus"} {
		for _, m := range []sim.Mechanism{sim.None, sim.FDIP, sim.Boomerang, sim.Shotgun} {
			scs = append(scs, sim.SingleCore(sim.Config{Workload: w, Mechanism: m}))
		}
	}
	return scs
}

// submitUntilDone submits scs through the typed client until every
// status comes back done, which warms the server's job table.
func submitUntilDone(tb testing.TB, cl *client.Client, scs []sim.Scenario) []ScenarioStatus {
	tb.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		sts, err := cl.SubmitScenarios(context.Background(), scs)
		if err != nil {
			tb.Fatal(err)
		}
		done := 0
		for _, st := range sts {
			switch st.Status {
			case StatusDone:
				done++
			case StatusFailed:
				tb.Fatalf("scenario %s failed: %s", st.Key, st.Error)
			}
		}
		if done == len(sts) {
			return sts
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%d of %d scenarios done after deadline", done, len(sts))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// structStatus builds a job's /v1/scenarios view field by field, the
// way the handlers built it before they served kept bytes. It is the
// oracle the wire bytes are held to.
func structStatus(j *job) ScenarioStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := ScenarioStatus{Key: j.key, Status: j.status, Cores: len(j.sc.Cores), Error: j.err}
	for _, cfg := range j.sc.Cores {
		st.Workloads = append(st.Workloads, cfg.Workload)
		st.Mechanisms = append(st.Mechanisms, string(cfg.Mechanism))
	}
	if j.status == StatusDone {
		res := j.result
		st.Result = &res
	}
	return st
}

// encodeCompact is what json.Encoder emits for v.
func encodeCompact(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawSubmit posts scs and returns the 202 body.
func rawSubmit(t *testing.T, base string, scs []sim.Scenario) []byte {
	t.Helper()
	req, err := json.Marshal(client.SubmitScenariosRequest{Scenarios: scs})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := request(t, http.MethodPost, base+"/v1/scenarios", "", string(req), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// submitKeys posts scs and returns their keys.
func submitKeys(t *testing.T, base string, scs []sim.Scenario) []string {
	t.Helper()
	var resp client.SubmitScenariosResponse
	if err := json.Unmarshal(rawSubmit(t, base, scs), &resp); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, st := range resp.Scenarios {
		keys = append(keys, st.Key)
	}
	return keys
}

// rawPoll returns one scenario poll's 200 body.
func rawPoll(t *testing.T, base, key string) []byte {
	t.Helper()
	resp, raw := request(t, http.MethodGet, base+"/v1/scenarios/"+key, "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// checkWire holds the submit and poll bodies for scs to the struct
// oracle: each decodes to exactly the oracle's status, and each is the
// byte-for-byte compact encoding of it. It returns the statuses.
func checkWire(t *testing.T, srv *Server, base string, scs []sim.Scenario) []ScenarioStatus {
	t.Helper()
	body := rawSubmit(t, base, scs)
	var got client.SubmitScenariosResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("submit body does not decode: %v\n%s", err, body)
	}
	want := client.SubmitScenariosResponse{}
	for _, st := range got.Scenarios {
		want.Scenarios = append(want.Scenarios, structStatus(srv.jobByKey(st.Key)))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("submit body decodes to\n%+v\nwant\n%+v", got, want)
	}
	if enc := encodeCompact(t, want); !bytes.Equal(body, enc) {
		t.Fatalf("submit body\n%s\nis not the encoder's\n%s", body, enc)
	}
	for _, st := range want.Scenarios {
		poll := rawPoll(t, base, st.Key)
		var got ScenarioStatus
		if err := json.Unmarshal(poll, &got); err != nil {
			t.Fatalf("poll body does not decode: %v\n%s", err, poll)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("poll of %s decodes to\n%+v\nwant\n%+v", st.Key, got, st)
		}
		if enc := encodeCompact(t, st); !bytes.Equal(poll, enc) {
			t.Fatalf("poll body\n%s\nis not the encoder's\n%s", poll, enc)
		}
	}
	return want.Scenarios
}

// waitStatus blocks until the job reaches status.
func waitStatus(t *testing.T, j *job, status string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j.mu.Lock()
		got := j.status
		j.mu.Unlock()
		if got == status {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %q, want %q", j.key, got, status)
		}
		time.Sleep(time.Millisecond)
	}
}

// kept is the job's kept encoding (nil while it is not terminal).
func kept(j *job) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wire
}

// newManualServer builds a server whose executor is hand-cranked and
// runs one job at a time, so the others stay queued.
func newManualServer(t *testing.T) (*Server, *httptest.Server, *manualExec) {
	t.Helper()
	exec := &manualExec{}
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", Workers: 1,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			exec.sink = sink
			return exec
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Shutdown() })
	return srv, ts, exec
}

// TestScenarioStatusWireMatchesStruct: through a job's whole lifecycle
// (queued, running, failed, done) the submit echo and the poll decode
// to exactly the status the struct path builds, byte for byte.
func TestScenarioStatusWireMatchesStruct(t *testing.T) {
	srv, ts, exec := newManualServer(t)
	scs := sixteenScenarios()[:3]

	// One job holds the executor's only worker; two wait behind it.
	waitStatus(t, srv.jobByKey(submitKeys(t, ts.URL, scs)[0]), StatusRunning)
	sts := checkWire(t, srv, ts.URL, scs)
	if got := []string{sts[0].Status, sts[1].Status, sts[2].Status}; !reflect.DeepEqual(got,
		[]string{StatusRunning, StatusQueued, StatusQueued}) {
		t.Fatalf("statuses %v, want running, queued, queued", got)
	}

	exec.finish(0, sim.ScenarioResult{}, "boom")
	b := srv.jobByKey(sts[1].Key)
	waitStatus(t, b, StatusRunning)
	exec.finish(1, sim.MustRunScenario(b.sc), "")
	waitStatus(t, srv.jobByKey(sts[2].Key), StatusRunning)

	sts = checkWire(t, srv, ts.URL, scs)
	if got := []string{sts[0].Status, sts[1].Status, sts[2].Status}; !reflect.DeepEqual(got,
		[]string{StatusFailed, StatusDone, StatusRunning}) {
		t.Fatalf("statuses %v, want failed, done, running", got)
	}
	if sts[0].Error != "boom" || sts[1].Result == nil || sts[1].Result.Cores[0].Core.Instructions == 0 {
		t.Fatalf("terminal statuses lost their outcome: %+v / %+v", sts[0], sts[1])
	}
	// A second pass serves the kept bytes of the terminal jobs.
	checkWire(t, srv, ts.URL, scs)
}

// TestScenarioStatusWireRefreshesUntilTerminal: nothing non-terminal
// is kept, so a key polled while queued shows done once it finishes.
func TestScenarioStatusWireRefreshesUntilTerminal(t *testing.T) {
	srv, ts, exec := newManualServer(t)
	scs := sixteenScenarios()[:2]
	keys := submitKeys(t, ts.URL, scs)
	queued := srv.jobByKey(keys[1])
	waitStatus(t, srv.jobByKey(keys[0]), StatusRunning)

	var st ScenarioStatus
	if err := json.Unmarshal(rawPoll(t, ts.URL, queued.key), &st); err != nil || st.Status != StatusQueued {
		t.Fatalf("first poll: %+v (%v), want queued", st, err)
	}
	if kept(queued) != nil {
		t.Fatal("a queued job kept its encoding")
	}
	exec.complete(0)
	exec.waitGrants(t, 2)
	exec.complete(1)
	waitStatus(t, queued, StatusDone)
	if err := json.Unmarshal(rawPoll(t, ts.URL, queued.key), &st); err != nil || st.Status != StatusDone || st.Result == nil {
		t.Fatalf("poll after finish: %+v (%v), want done with a result", st, err)
	}
	if kept(queued) == nil {
		t.Fatal("a done job did not keep its encoding")
	}
}

// TestScenarioStatusWireStoreMatchesLive: a key answered by a live job
// and the same key served from the store after a restart (by poll
// first, and by submit first) carry identical bytes.
func TestScenarioStatusWireStoreMatchesLive(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	scs := []sim.Scenario{
		sim.SingleCore(sim.Config{Workload: "Nutch", Mechanism: sim.Shotgun}),
		{Cores: []sim.Config{
			{Workload: "Streaming", Mechanism: sim.Boomerang},
			{Workload: "Nutch", Mechanism: sim.None},
		}},
	}
	srv1, ts1 := newTestServer(t, open())
	sts := submitUntilDone(t, client.New(ts1.URL), scs)
	liveSubmit := rawSubmit(t, ts1.URL, scs)
	var livePolls [][]byte
	for _, st := range sts {
		livePolls = append(livePolls, rawPoll(t, ts1.URL, st.Key))
	}
	checkWire(t, srv1, ts1.URL, scs)

	// Poll first: the poll adopts the store's record.
	srv2, ts2 := newTestServer(t, open())
	for i, st := range sts {
		if got := rawPoll(t, ts2.URL, st.Key); !bytes.Equal(got, livePolls[i]) {
			t.Fatalf("store-served poll of %s\n%s\ndiffers from the live one\n%s", st.Key, got, livePolls[i])
		}
	}
	if got := rawSubmit(t, ts2.URL, scs); !bytes.Equal(got, liveSubmit) {
		t.Fatalf("submit after store-served polls\n%s\ndiffers from the live one\n%s", got, liveSubmit)
	}
	checkWire(t, srv2, ts2.URL, scs)

	// Submit first: enqueue adopts the store's record.
	_, ts3 := newTestServer(t, open())
	if got := rawSubmit(t, ts3.URL, scs); !bytes.Equal(got, liveSubmit) {
		t.Fatalf("store-served submit\n%s\ndiffers from the live one\n%s", got, liveSubmit)
	}
	for i, st := range sts {
		if got := rawPoll(t, ts3.URL, st.Key); !bytes.Equal(got, livePolls[i]) {
			t.Fatalf("poll after a store-served submit\n%s\ndiffers from the live one\n%s", got, livePolls[i])
		}
	}
}

// TestScenarioStatusWirePollRacesFinish: polls and resubmits racing a
// job's finish (and the first fill of its kept bytes) always see a
// whole status, never go back from done, and end on the oracle's
// bytes. Run it under -race.
func TestScenarioStatusWirePollRacesFinish(t *testing.T) {
	srv, _, exec := newManualServer(t)
	h := srv.Handler()
	sc := sixteenScenarios()[5]
	req, err := json.Marshal(client.SubmitScenariosRequest{Scenarios: []sim.Scenario{sc}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Body.Bytes()
	}
	var sub client.SubmitScenariosResponse
	if err := json.Unmarshal(serve(http.MethodPost, "/v1/scenarios", string(req)), &sub); err != nil {
		t.Fatal(err)
	}
	key := sub.Scenarios[0].Key
	exec.waitGrants(t, 1)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(submit bool) {
			defer wg.Done()
			seenDone := false
			for i := 0; i < 200; i++ {
				var st ScenarioStatus
				if submit {
					var resp client.SubmitScenariosResponse
					if err := json.Unmarshal(serve(http.MethodPost, "/v1/scenarios", string(req)), &resp); err != nil {
						errs <- err.Error()
						return
					}
					st = resp.Scenarios[0]
				} else if err := json.Unmarshal(serve(http.MethodGet, "/v1/scenarios/"+key, ""), &st); err != nil {
					errs <- err.Error()
					return
				}
				switch {
				case st.Status == StatusDone && st.Result == nil:
					errs <- "done without a result"
					return
				case st.Status == StatusDone:
					seenDone = true
				case seenDone:
					errs <- "went back from done to " + st.Status
					return
				}
			}
		}(g%2 == 0)
	}
	exec.complete(0)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	want := encodeCompact(t, structStatus(srv.jobByKey(key)))
	if got := serve(http.MethodGet, "/v1/scenarios/"+key, ""); !bytes.Equal(got, want) {
		t.Fatalf("final poll\n%s\nis not the encoder's\n%s", got, want)
	}
}

// TestClientReusesConnections: warm 16-scenario submits and their
// polls all ride the first connection. TestClientDrainKeepsConnection
// (internal/client) is the test that fails when a response goes
// undrained.
func TestClientReusesConnections(t *testing.T) {
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 2})
	ts := httptest.NewUnstartedServer(srv.Handler())
	var dials atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	tr := &http.Transport{}
	t.Cleanup(func() { tr.CloseIdleConnections(); ts.Close(); srv.Close() })
	cl := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr}))

	scs := sixteenScenarios()
	sts := submitUntilDone(t, cl, scs)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := cl.SubmitScenarios(ctx, scs); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Scenario(ctx, sts[i].Key); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client opened %d connections, want 1", n)
	}
}

// BenchmarkWarmSubmit is the farm's warm path in one layer: one
// 16-scenario submit whose jobs are all done, through httptest and the
// typed client.
func BenchmarkWarmSubmit(b *testing.B) {
	srv := New(Config{Scale: tinyScale(), ScaleName: "tiny", Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	defer func() { tr.CloseIdleConnections(); ts.Close(); srv.Close() }()
	cl := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr}))
	scs := sixteenScenarios()
	submitUntilDone(b, cl, scs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.SubmitScenarios(context.Background(), scs); err != nil {
			b.Fatal(err)
		}
	}
}
