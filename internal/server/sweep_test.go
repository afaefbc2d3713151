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

	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/sim"
	"shotgun/internal/store"
)

// testSweepSpec is a minimal two-cell sweep: one workload, the
// no-prefetch baseline and FDIP, reporting speedup.
const testSweepSpec = `{
  "version": 1,
  "name": "sweep-e2e",
  "tables": [
    {
      "id": "tiny",
      "title": "e2e: FDIP speedup on Nutch",
      "grid": {
        "workloads": ["Nutch"],
        "columns": [
          {"name": "none", "config": {"mechanism": "none"}},
          {"name": "fdip", "config": {"mechanism": "fdip"}}
        ],
        "metric": "speedup"
      }
    }
  ]
}`

func postSweep(t *testing.T, base, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestSweepEndToEnd round-trips one spec through POST /v1/sweeps:
// submit, wait (the handler is synchronous), check the rendered report,
// poll the expansion's scenario keys through the ordinary job API, and
// prove resubmission dedups onto the same jobs and the same bytes.
func TestSweepEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, st)

	resp, raw := postSweep(t, ts.URL, "", testSweepSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var out sweepResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode sweep response: %v", err)
	}
	if out.Name != "sweep-e2e" || out.Scale != "tiny" {
		t.Fatalf("unexpected envelope: name %q scale %q", out.Name, out.Scale)
	}
	// Two cells, one of which IS the baseline: two unique keys.
	if len(out.Keys) != 2 {
		t.Fatalf("expected 2 scenario keys, got %d (%v)", len(out.Keys), out.Keys)
	}
	if len(out.Report.Tables) != 1 {
		t.Fatalf("expected 1 rendered table, got %d", len(out.Report.Tables))
	}
	tab := out.Report.Tables[0]
	if tab.ID != "tiny" || len(tab.Rows) != 1 || len(tab.Rows[0]) != 3 {
		t.Fatalf("unexpected table shape: %+v", tab)
	}
	if tab.Rows[0][1] != "1.000" {
		t.Fatalf("baseline speedup cell should be 1.000, got %q", tab.Rows[0][1])
	}

	// Every expanded scenario is a first-class job: pollable, done, and
	// persisted.
	for _, key := range out.Keys {
		if got := pollScenarioDone(t, ts.URL, key); got.Status != StatusDone {
			t.Fatalf("key %s: status %s, want done", key, got.Status)
		}
	}
	puts := st.Stats().Puts
	if puts != 2 {
		t.Fatalf("store puts = %d, want 2 (one per unique scenario)", puts)
	}

	// The sweep shares the job table with /v1/scenarios: the FDIP
	// cell's key is the same key a one-core submission gets.
	single, resp2 := postSingles(t, ts.URL, []sim.Config{{Workload: "Nutch", Mechanism: sim.FDIP}})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("single-core submit status %d", resp2.StatusCode)
	}
	if single.Scenarios[0].Status != StatusDone {
		t.Fatalf("deduped sim should be born done, got %q", single.Scenarios[0].Status)
	}
	found := false
	for _, key := range out.Keys {
		if key == single.Scenarios[0].Key {
			found = true
		}
	}
	if !found {
		t.Fatalf("sim key %s not among sweep keys %v — sweep jobs are not deduping", single.Scenarios[0].Key, out.Keys)
	}

	// Resubmitting the sweep dedups completely and renders identically.
	if srv.runner.Workers() < 1 {
		t.Fatal("runner lost its workers")
	}
	resp3, raw3 := postSweep(t, ts.URL, "", testSweepSpec)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d", resp3.StatusCode)
	}
	if !bytes.Equal(raw, raw3) {
		t.Fatalf("resubmitted sweep rendered differently:\n%s\nvs\n%s", raw, raw3)
	}
	if got := st.Stats().Puts; got != puts {
		t.Fatalf("resubmit wrote %d new records, want 0", got-puts)
	}
}

// TestSweepFormatsAndSelection covers the text/csv renders and the
// ?tables= selector.
func TestSweepFormatsAndSelection(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, raw := postSweep(t, ts.URL, "?format=text&tables=tiny", testSweepSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "e2e: FDIP speedup on Nutch") {
		t.Fatalf("text render missing title:\n%s", raw)
	}

	resp, raw = postSweep(t, ts.URL, "?format=csv", testSweepSpec)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(raw), "table,tiny,") {
		t.Fatalf("csv render wrong (status %d):\n%s", resp.StatusCode, raw)
	}
}

// TestSweepRejections covers the 400 surfaces: malformed spec, unknown
// field, unknown table selection, scale mismatch, bad format.
func TestSweepRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name  string
		query string
		body  string
	}{
		{"malformed json", "", `{"version":`},
		{"unknown field", "", `{"version":1,"name":"x","bogus":true,"tables":[]}`},
		{"wrong version", "", `{"version":9,"name":"x","tables":[]}`},
		{"unknown table selected", "?tables=nope", testSweepSpec},
		{"bad format", "?format=xml", testSweepSpec},
		{"scale mismatch", "", `{
		  "version": 1, "name": "x",
		  "scale": {"warmup_instr": 1000, "measure_instr": 1000, "samples": 1},
		  "tables": [{"id": "t", "title": "t", "grid": {
		    "workloads": ["Nutch"],
		    "columns": [{"name": "none", "config": {"mechanism": "none"}}],
		    "metric": "ipc"}}]
		}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postSweep(t, ts.URL, tc.query, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
			}
		})
	}
}

// TestSweepWaitWakesOnAbandon: a sweep blocked on jobs that will never
// finish (executor swallows them) must answer 503 as soon as Shutdown
// abandons the queue, instead of stalling until the HTTP drain
// deadline kills the connection — while a mere RejectNew (the
// pre-drain step, during which in-flight jobs may still finish) keeps
// the wait alive.
func TestSweepWaitWakesOnAbandon(t *testing.T) {
	srv := New(Config{
		Scale:     tinyScale(),
		ScaleName: "tiny",
		NewExecutor: func(*harness.Runner, dispatch.Sink) dispatch.Executor {
			return sinkExec{}
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close() })

	type result struct {
		code int
		body string
	}
	done := make(chan result, 1)
	go func() {
		resp, raw := postSweep(t, ts.URL, "", testSweepSpec)
		done <- result{resp.StatusCode, string(raw)}
	}()
	// Let the handler enqueue and block on the never-completing jobs.
	// RejectNew alone must NOT wake it: the drain window exists so
	// in-flight work can still finish.
	time.Sleep(200 * time.Millisecond)
	srv.RejectNew()
	select {
	case got := <-done:
		t.Fatalf("RejectNew woke the sweep wait (status %d body %q); only abandonment should", got.code, got.body)
	case <-time.After(300 * time.Millisecond):
	}
	srv.Shutdown()
	select {
	case got := <-done:
		if got.code != http.StatusServiceUnavailable || !strings.Contains(got.body, "shutting down") {
			t.Fatalf("status %d body %q, want 503 shutting-down", got.code, got.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep wait did not wake on abandonment")
	}
}
