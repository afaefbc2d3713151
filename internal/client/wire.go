// Package client is the v1 API surface in one place: the wire types
// every endpoint speaks, the versioned JSON error envelope every
// non-2xx response carries, and a typed HTTP client over both the
// public simulation API and the cluster lease protocol.
//
// The server (internal/server) and the coordinator (internal/dispatch)
// import this package for the shared types and the envelope writer, so
// a request marshaled here always matches what the handlers decode —
// there is exactly one definition of the v1 surface in the repo.
//
// Every error response, on every route, is the same envelope:
//
//	{"error":{"code":"overloaded","message":"...","retryable":true}}
//
// Codes are stable, machine-readable strings (see the Code constants);
// messages are human-readable and may change. Responses with code
// overloaded (503) also carry a Retry-After header, which Client
// honors when retrying.
package client

import (
	"fmt"
	"net/http"
	"time"

	"shotgun/internal/report"
	"shotgun/internal/sim"
)

// Stable machine-readable error codes, enumerated in docs/FARM.md.
// Clients branch on these, never on message text.
const (
	// CodeInvalidRequest: malformed body, bad parameter, failed
	// validation. 400; not retryable.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidSpec: a sweep spec that failed to compile or pins a
	// scale the server does not run. 400; not retryable.
	CodeInvalidSpec = "invalid_spec"
	// CodeUnauthorized: missing or wrong API key. 401; not retryable.
	CodeUnauthorized = "unauthorized"
	// CodeNotFound: unknown key, experiment or route. 404; not
	// retryable.
	CodeNotFound = "not_found"
	// CodeOverloaded: the queue depth bound was passed and the server
	// is shedding load. 503 with Retry-After; retryable.
	CodeOverloaded = "overloaded"
	// CodeShuttingDown: this process is draining; retry against
	// another node (or after the restart). 503; retryable.
	CodeShuttingDown = "shutting_down"
	// CodeInterrupted: a blocking call (a sweep wait) was cut short
	// before the work finished; the work keeps running and a resubmit
	// dedups onto it. 503; retryable.
	CodeInterrupted = "interrupted"
	// CodeInternal: a scenario failed to simulate. 500; not retryable
	// (the same input will fail again).
	CodeInternal = "internal"
)

// Retryable reports whether a code marks a transient condition worth
// resubmitting: the request was well-formed, the server just could not
// take it right now.
func Retryable(code string) bool {
	switch code {
	case CodeOverloaded, CodeShuttingDown, CodeInterrupted:
		return true
	}
	return false
}

// ErrorInfo is the envelope's payload.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// APIError is a decoded non-2xx response: the envelope plus transport
// context. It is what every Client method returns on failure.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Path is the request path that failed.
	Path string
	// ErrorInfo carries the decoded envelope. For a response that did
	// not carry the envelope (a proxy in the way, a panic'd handler),
	// Code is empty and Message holds the raw body prefix.
	ErrorInfo
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	code := e.Code
	if code == "" {
		code = "no_envelope"
	}
	msg := fmt.Sprintf("%s: %d %s: %s", e.Path, e.Status, code, e.Message)
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(" (retry after %v)", e.RetryAfter)
	}
	return msg
}

// Job states, in lifecycle order, shared by every status endpoint.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// ScenarioStatus is a job's status: POST /v1/scenarios echoes and
// GET /v1/scenarios/{key} polls.
type ScenarioStatus struct {
	Key        string              `json:"key"`
	Status     string              `json:"status"`
	Cores      int                 `json:"cores"`
	Workloads  []string            `json:"workloads"`
	Mechanisms []string            `json:"mechanisms"`
	Error      string              `json:"error,omitempty"`
	Result     *sim.ScenarioResult `json:"result,omitempty"`
}

// SubmitScenariosRequest is POST /v1/scenarios' body.
type SubmitScenariosRequest struct {
	Scenarios []sim.Scenario `json:"scenarios"`
}

// SubmitScenariosResponse echoes one status per scenario, in order.
type SubmitScenariosResponse struct {
	Scenarios []ScenarioStatus `json:"scenarios"`
}

// VersionInfo is GET /v1/version: everything a client needs to
// preflight compatibility before submitting work.
type VersionInfo struct {
	// API is the surface version ("v1").
	API string `json:"api"`
	// StoreFormatVersion is internal/store's on-disk generation; keys
	// minted against a different generation address a disjoint space.
	StoreFormatVersion int `json:"store_format_version"`
	// MaxCores is the largest scenario this server simulates.
	MaxCores int `json:"max_cores"`
	// Scale labels the simulation scale submissions are pinned to.
	Scale string `json:"scale"`
	// AuthRequired reports whether requests need an API key.
	AuthRequired bool `json:"auth_required"`
}

// SweepResponse is POST /v1/sweeps' json body: the rendered report
// plus the expansion's pollable scenario keys.
type SweepResponse struct {
	Name   string        `json:"name"`
	Scale  string        `json:"scale,omitempty"`
	Keys   []string      `json:"keys"`
	Report report.Report `json:"report"`
}

// ---------------------------------------------------------------------
// Cluster lease protocol (coordinator <-> worker; no API key — these
// routes are cluster-internal and mounted beside the public surface).
// ---------------------------------------------------------------------

// LeasedJob is one job granted to a worker.
type LeasedJob struct {
	Key      string       `json:"key"`
	Scenario sim.Scenario `json:"scenario"`
}

// LeaseRequest is POST /v1/lease's body.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// LeaseResponse grants jobs and tells the worker its heartbeat budget.
type LeaseResponse struct {
	TTLMillis int64       `json:"ttl_ms"`
	Jobs      []LeasedJob `json:"jobs"`
}

// HeartbeatRequest is POST /v1/heartbeat's body.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Keys   []string `json:"keys"`
}

// HeartbeatResponse lists the keys the worker no longer owns.
type HeartbeatResponse struct {
	Lost []string `json:"lost"`
}

// CompleteRequest is POST /v1/complete's body: a result, or an error
// message for a job the worker could not simulate.
type CompleteRequest struct {
	Worker string             `json:"worker"`
	Key    string             `json:"key"`
	Result sim.ScenarioResult `json:"result"`
	Error  string             `json:"error,omitempty"`
}

// CompleteResponse reports whether this push finished the job
// (accepted=false: someone already did — drop it and move on).
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
}

// WriteError writes the v1 error envelope with the given status and
// code. Retryability is derived from the code, so handlers cannot
// disagree with the published table in docs/FARM.md.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteErrorRetryAfter(w, status, code, 0, format, args...)
}

// WriteErrorRetryAfter is WriteError plus a Retry-After hint (rounded
// up to whole seconds, minimum 1s) for load-shedding responses.
func WriteErrorRetryAfter(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	EncodeJSON(w, ErrorEnvelope{Error: ErrorInfo{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: Retryable(code),
	}})
}
