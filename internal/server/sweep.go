package server

// POST /v1/sweeps: declarative sweep execution. The body is a spec
// document (internal/spec); the server validates and expands it,
// enqueues every expanded scenario through the ordinary job table — so
// sweep jobs dedup against /v1/scenarios submissions, catalog
// experiment renders, and the persistent store by content key — waits
// for the expansion to finish, and renders the chosen tables. A catalog
// render (GET /v1/experiments/{name}) is the same path over one
// embedded spec's experiment.
//
//	POST /v1/sweeps?format=json|csv|text&tables=id1,id2   body: spec JSON
//
// json responses wrap the report with the sweep's scenario keys, so a
// client can re-poll individual results via GET /v1/scenarios/{key}
// afterwards; csv and text responses are the bare rendered tables.
//
// A request with "Accept: text/event-stream" streams progress over SSE
// instead of blocking silently: one "sweep" event up front, one
// "scenario" event per completed key, then a terminal "result" event
// whose data lines, joined with newlines, are byte-identical to the
// blocking response body for the same format (or an "error" event
// carrying the same envelope a blocking request would get).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"shotgun/internal/client"
	"shotgun/internal/harness"
	"shotgun/internal/report"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/store"
)

// sweepResponse is POST /v1/sweeps' json body (defined in
// internal/client: Name, Scale, Keys, Report).
type sweepResponse = client.SweepResponse

// compiledSweep is one validated, expanded, deduplicated sweep request.
type compiledSweep struct {
	name   string
	exps   []harness.Experiment
	keys   []string
	format string
}

// parseSweep validates the request (format, spec, scale pin, table
// selection) and expands the work list; on failure it has already
// written the error envelope.
func (s *Server) parseSweep(w http.ResponseWriter, r *http.Request) (*compiledSweep, []sim.Scenario, bool) {
	format, ok := formatOf(w, r)
	if !ok {
		return nil, nil, false
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "read body: %v", err)
		return nil, nil, false
	}
	compiled, err := spec.Compile(body)
	if err != nil {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidSpec, "%v", err)
		return nil, nil, false
	}
	// Content keys derive from the server's pinned scale; a spec that
	// pins a different scale would silently run at the wrong one.
	if sc := compiled.Spec.Scale; sc != nil && *sc != s.scale {
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidSpec,
			"spec pins scale %+v but this server runs %q (%+v); drop the spec's scale or submit to a matching server",
			*sc, s.scaleName, s.scale)
		return nil, nil, false
	}

	exps := compiled.Experiments()
	if sel := r.URL.Query().Get("tables"); sel != "" {
		if exps, err = harness.Select(exps, sel); err != nil {
			client.WriteError(w, http.StatusBadRequest, client.CodeInvalidSpec,
				"spec %q: %v", compiled.Spec.Name, err)
			return nil, nil, false
		}
	}

	keys, pinned := s.pinScenarios(exps)
	return &compiledSweep{name: compiled.Spec.Name, exps: exps, keys: keys, format: format}, pinned, true
}

// pinScenarios expands experiments' work list, pins it to the server
// scale, and dedups it by content key, returning the keys and pinned
// scenarios in expansion order. Identical keys then dedup onto
// existing jobs (or store records) exactly like the batch endpoints.
func (s *Server) pinScenarios(exps []harness.Experiment) ([]string, []sim.Scenario) {
	scs := harness.AllScenarios(exps)
	var keys []string
	var pinned []sim.Scenario
	seen := make(map[string]bool, len(scs))
	for _, sc := range scs {
		n := s.runner.NormalizeScenario(sc)
		key := store.ScenarioKey(n)
		if seen[key] {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
		pinned = append(pinned, n)
	}
	return keys, pinned
}

// formatOf reads ?format= (default json); anything but json, csv or
// text has already been answered 400.
func formatOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	switch format := r.URL.Query().Get("format"); format {
	case "":
		return "json", true
	case "json", "csv", "text":
		return format, true
	default:
		client.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest,
			"unknown format %q (json, csv, text)", format)
		return "", false
	}
}

// failedJobs collects "key: error" lines for terminal-failed jobs.
func failedJobs(jobs []*job) []string {
	var failed []string
	for _, j := range jobs {
		j.mu.Lock()
		if j.status == StatusFailed {
			failed = append(failed, fmt.Sprintf("%s: %s", j.key, j.err))
		}
		j.mu.Unlock()
	}
	return failed
}

// renderRunner builds a runner for one render, seeded with every
// completed job's result, so the render reads the farm's work instead
// of re-simulating it. The runner lives as long as the request: the
// job table is the only result table that outlives one.
func (s *Server) renderRunner(jobs []*job) *harness.Runner {
	runner := harness.NewRunnerWorkers(s.scale, s.runner.Workers())
	for _, j := range jobs {
		j.mu.Lock()
		done := j.status == StatusDone
		res := j.result
		j.mu.Unlock()
		if done {
			runner.Seed(j.sc, res)
		}
	}
	return runner
}

// renderSweep renders the report from the sweep's jobs, returning the
// body and its content type.
func (s *Server) renderSweep(cs *compiledSweep, jobs []*job) ([]byte, string) {
	runner := s.renderRunner(jobs)
	var buf bytes.Buffer
	switch cs.format {
	case "json", "csv":
		rep := report.FromExperiments(runner, cs.exps, s.scaleName)
		if cs.format == "csv" {
			_ = rep.WriteCSV(&buf)
			return buf.Bytes(), "text/csv"
		}
		client.EncodeJSON(&buf, sweepResponse{Name: cs.name, Scale: s.scaleName, Keys: cs.keys, Report: rep})
		return buf.Bytes(), "application/json"
	default: // text
		for _, e := range cs.exps {
			fmt.Fprintln(&buf, e.Run(runner))
		}
		return buf.Bytes(), "text/plain; charset=utf-8"
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	cs, pinned, ok := s.parseSweep(w, r)
	if !ok {
		return
	}
	jobs, ok := s.accept(w, r, cs.keys, pinned)
	if !ok {
		return
	}

	if wantsSSE(r) {
		if flusher, can := w.(http.Flusher); can {
			s.streamSweep(w, flusher, r, cs, jobs)
			return
		}
		// No flush support on this connection: fall through to the
		// blocking path, which needs none.
	}

	if !s.awaitJobs(w, r, "sweep", cs.name, jobs) {
		return
	}
	body, ctype := s.renderSweep(cs, jobs)
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

// awaitJobs blocks until every job is terminal and reports whether all
// succeeded; if not, it has written the envelope (what and name label
// the request). A gone client ends the wait, but its jobs keep running,
// so a retry is all hits. Job ABANDONMENT also ends it: Shutdown leaves
// queued jobs without closing their done channels, and without the
// signal the handler would stall until the HTTP drain deadline instead
// of answering an honest 503. A graceful drain (Close, RejectNew) does
// not: jobs finishing inside the drain window still deliver a result.
func (s *Server) awaitJobs(w http.ResponseWriter, r *http.Request, what, name string, jobs []*job) bool {
	ctx := r.Context()
	for _, j := range jobs {
		// Fast path first: select picks uniformly among ready cases, so
		// without it a just-closed abandonCh could win over an equally
		// closed done channel and 503 a request whose work all finished.
		select {
		case <-j.done:
			continue
		default:
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			client.WriteError(w, http.StatusServiceUnavailable, client.CodeInterrupted,
				"%s %q interrupted while simulating; results keep computing and dedup on resubmit", what, name)
			return false
		case <-s.abandonCh:
			client.WriteError(w, http.StatusServiceUnavailable, client.CodeShuttingDown,
				"server shutting down mid-%s %q; completed results persist and dedup on resubmit", what, name)
			return false
		}
	}
	if failed := failedJobs(jobs); len(failed) > 0 {
		client.WriteError(w, http.StatusInternalServerError, client.CodeInternal,
			"%s %q: %d scenarios failed: %s", what, name, len(failed), strings.Join(failed, "; "))
		return false
	}
	return true
}

// wantsSSE reports whether the request asked for an event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// sseEvent writes one SSE event and flushes it out. Multi-line
// payloads become one data: line each — the receiver joins them with
// newlines, restoring the payload byte-for-byte.
func sseEvent(w io.Writer, flusher http.Flusher, event, payload string) {
	fmt.Fprintf(w, "event: %s\n", event)
	for _, line := range strings.Split(payload, "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	fmt.Fprint(w, "\n")
	flusher.Flush()
}

// sseJSON renders a compact JSON payload for an event.
func sseJSON(v any) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// sweepProgress is the payload of "sweep" (initial) and "scenario"
// (per-completion) events.
type sweepProgress struct {
	Name      string `json:"name,omitempty"`
	Key       string `json:"key,omitempty"`
	Status    string `json:"status,omitempty"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
}

// streamSweep is the SSE sweep path: per-scenario completion events in
// completion order, then a terminal "result" event whose data is the
// same bytes the blocking path would have answered (or an "error"
// event carrying the envelope it would have answered).
func (s *Server) streamSweep(w http.ResponseWriter, flusher http.Flusher, r *http.Request, cs *compiledSweep, jobs []*job) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	total := len(jobs)
	sseEvent(w, flusher, "sweep", sseJSON(sweepProgress{Name: cs.name, Total: total}))

	// Fan every job's done channel into one stream so events arrive in
	// completion order, not expansion order. The forwarders hold no
	// locks and exit with the request (or on abandonment).
	ctx := r.Context()
	completions := make(chan *job)
	for _, j := range jobs {
		go func(j *job) {
			select {
			case <-j.done:
				select {
				case completions <- j:
				case <-ctx.Done():
				case <-s.abandonCh:
				}
			case <-ctx.Done():
			case <-s.abandonCh:
			}
		}(j)
	}

	errEvent := func(code, format string, args ...any) {
		sseEvent(w, flusher, "error", sseJSON(client.ErrorEnvelope{Error: client.ErrorInfo{
			Code:      code,
			Message:   fmt.Sprintf(format, args...),
			Retryable: client.Retryable(code),
		}}))
	}
	for completed := 0; completed < total; completed++ {
		select {
		case j := <-completions:
			j.mu.Lock()
			status := j.status
			j.mu.Unlock()
			sseEvent(w, flusher, "scenario", sseJSON(sweepProgress{
				Key: j.key, Status: status, Completed: completed + 1, Total: total,
			}))
		case <-ctx.Done():
			// The client is gone; nothing useful can be written.
			return
		case <-s.abandonCh:
			errEvent(client.CodeShuttingDown,
				"server shutting down mid-sweep %q; completed results persist and dedup on resubmit", cs.name)
			return
		}
	}
	if failed := failedJobs(jobs); len(failed) > 0 {
		errEvent(client.CodeInternal, "sweep %q: %d scenarios failed: %s",
			cs.name, len(failed), strings.Join(failed, "; "))
		return
	}
	body, _ := s.renderSweep(cs, jobs)
	sseEvent(w, flusher, "result", string(body))
}
