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

// FuzzTenantAuth fuzzes the two attacker-reachable parsers of the
// tenancy layer: the Authorization header splitter and the registry
// document parser. Neither may panic, and a registry that parses must
// uphold its invariants — bounded fields, duplicate-free names, every
// key resolving back to its own tenant.
func FuzzTenantAuth(f *testing.F) {
	f.Add("Bearer key-1", []byte(`{"tenants":[{"name":"a","key":"key-1"}]}`))
	f.Add("bearer x", []byte(`{"tenants":[]}`))
	f.Add("Basic Zm9v", []byte(`{`))
	f.Add("", []byte(`{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`))
	f.Add("Bearer \x00\xff", []byte(`{"tenants":[{"name":"a","key":"k","weight":-1}]}`))
	f.Add("Bearer "+strings.Repeat("k", 300),
		[]byte(`{"tenants":[{"name":"`+strings.Repeat("n", 100)+`","key":"k"}]}`))

	f.Fuzz(func(t *testing.T, header string, doc []byte) {
		key, ok := bearerKey(header)
		if ok && (key == "" || len(key) > maxTenantKey) {
			t.Fatalf("bearerKey accepted out-of-bounds key %q", key)
		}
		reg, err := ParseTenants(doc)
		if err != nil {
			if reg != nil {
				t.Fatal("ParseTenants returned both a registry and an error")
			}
			return
		}
		names := make(map[string]bool)
		for _, tn := range reg.Tenants() {
			if tn.Name == "" || len(tn.Name) > maxTenantName || tn.Key == "" || len(tn.Key) > maxTenantKey {
				t.Fatalf("registry admitted out-of-bounds tenant %+v", tn)
			}
			if tn.Weight < 0 || tn.MaxQueued < 0 || tn.MaxInFlight < 0 {
				t.Fatalf("registry admitted negative policy %+v", tn)
			}
			if names[tn.Name] {
				t.Fatalf("registry admitted duplicate name %q", tn.Name)
			}
			names[tn.Name] = true
			got, found := reg.Lookup(tn.Key)
			if !found || got.Name != tn.Name {
				t.Fatalf("key %q does not resolve to its tenant %q", tn.Key, tn.Name)
			}
		}
		if ok {
			reg.Lookup(key) // must not panic, whatever the header held
		}
	})
}
