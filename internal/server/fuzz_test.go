package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/sim"
)

// sinkExec swallows every job without simulating, so fuzz inputs that
// happen to be valid batches cost microseconds instead of simulations.
type sinkExec struct{}

func (sinkExec) Enqueue(string, sim.Scenario) error { return nil }
func (sinkExec) Stop(bool)                          {}

// FuzzSubmitEndpoints feeds arbitrary bodies to the submission route:
// malformed JSON, truncated bodies, wrong-typed fields and oversized
// batches must all answer 4xx (202/503 for well-formed ones) — never a
// panic, never a 5xx.
func FuzzSubmitEndpoints(f *testing.F) {
	srv := New(Config{
		Scale:     tinyScale(),
		ScaleName: "tiny",
		MaxBatch:  8,
		NewExecutor: func(*harness.Runner, dispatch.Sink) dispatch.Executor {
			return sinkExec{}
		},
	})
	// Shutdown, not Close: a drain would wait forever on jobs the stub
	// executor swallowed.
	f.Cleanup(func() { srv.Shutdown() })
	handler := srv.Handler()

	// A config batch is not a scenario batch: it must get a 400.
	f.Add([]byte(`{"configs":[{"Workload":"Oracle","Mechanism":"none"}]}`))
	f.Add([]byte(`{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"shotgun"}]}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"scenarios":[]}`))
	f.Add([]byte(`{"scenarios":[{"Cores":[]}]}`))
	f.Add([]byte(`{"scenarios":"not-a-list"}`))
	f.Add([]byte(`{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"none"}],"LLCSizeBytes":-5}]}`))
	// Oversized batch: 9 scenarios against MaxBatch 8.
	f.Add([]byte(`{"scenarios":[` + strings.Repeat(`{"Cores":[{"Workload":"Oracle","Mechanism":"none"}]},`, 8) +
		`{"Cores":[{"Workload":"Oracle","Mechanism":"none"}]}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// keyedRoutes is every route of a keyed coordinator, each with a body
// that could succeed past the key without blocking on a simulation:
// the public API, the lease protocol and the exempt probes.
var keyedRoutes = []struct{ method, path, body string }{
	{http.MethodGet, "/healthz", ""},
	{http.MethodGet, "/v1/version", ""},
	{http.MethodGet, "/metrics", ""},
	{http.MethodPost, "/v1/scenarios", `{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"none"}]}]}`},
	{http.MethodGet, "/v1/scenarios/deadbeef", ""},
	{http.MethodPost, "/v1/sweeps", `{"version":`},
	{http.MethodGet, "/v1/experiments", ""},
	{http.MethodGet, "/v1/experiments/nope", ""},
	{http.MethodGet, "/v1/store/stats", ""},
	{http.MethodGet, "/v1/cluster", ""},
	{http.MethodPost, "/v1/lease", `{"worker":"w","max":1}`},
	{http.MethodPost, "/v1/heartbeat", `{"worker":"w","keys":["k"]}`},
	{http.MethodPost, "/v1/complete", `{"worker":"w","key":"k","result":{"Cores":[]}}`},
	{http.MethodGet, "/v1/nope", ""},
}

// FuzzAPIKeyAuth sends arbitrary Authorization headers to every route
// of a keyed coordinator, the lease routes included. No header may
// panic; a request without the exact key gets the 401 envelope on
// every non-exempt route, never a 2xx; the exempt routes answer 200
// whatever the header says; and the exact key always gets past the
// gate.
func FuzzAPIKeyAuth(f *testing.F) {
	const key = "fuzz-key-0123"
	srv := New(Config{
		Scale: tinyScale(), ScaleName: "tiny", APIKey: key,
		NewExecutor: func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			return dispatch.NewCoordinator(dispatch.CoordinatorConfig{Sink: sink, ReapEvery: -1})
		},
	})
	// Shutdown, not Close: a drain would wait forever on jobs no worker
	// leases.
	f.Cleanup(func() { srv.Shutdown() })
	handler := srv.Handler()

	f.Add("Bearer " + key)
	f.Add("bearer " + key)
	f.Add("BEARER " + key + " ")
	f.Add("Bearer " + key[:len(key)-1])
	f.Add("Bearer ")
	f.Add("Basic Zm9v")
	f.Add("")
	f.Add("Bearer \x00\xff")
	f.Add("Bearer " + strings.Repeat("k", 300))

	f.Fuzz(func(t *testing.T, header string) {
		exact := len(header) >= len("bearer ") && strings.EqualFold(header[:len("bearer ")], "bearer ") &&
			header[len("bearer "):] == key
		for _, rt := range keyedRoutes {
			req := httptest.NewRequest(rt.method, rt.path, strings.NewReader(rt.body))
			req.Header.Set("Authorization", header)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			switch {
			case authExempt(rt.path):
				if rec.Code != http.StatusOK {
					t.Fatalf("exempt %s %s with Authorization %q: status %d", rt.method, rt.path, header, rec.Code)
				}
			case !exact:
				if rec.Code != http.StatusUnauthorized || !strings.Contains(rec.Body.String(), `"unauthorized"`) {
					t.Fatalf("%s %s with Authorization %q: status %d, want the 401 envelope",
						rt.method, rt.path, header, rec.Code)
				}
			case rec.Code == http.StatusUnauthorized:
				t.Fatalf("%s %s: the exact key was refused", rt.method, rt.path)
			}
		}
	})
}
