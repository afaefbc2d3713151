package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shotgun/internal/sim"
)

// fastOpts keeps retry sleeps microscopic so tests stay quick.
func fastOpts(extra ...Option) []Option {
	return append([]Option{WithMaxBackoff(time.Millisecond)}, extra...)
}

func TestEnvelopeDecodesIntoAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteErrorRetryAfter(w, http.StatusServiceUnavailable, CodeOverloaded, 3*time.Second,
			"queue %q full", "main")
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts(WithRetries(0))...)
	_, err := c.Version(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Status != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", ae.Status)
	}
	if ae.Code != CodeOverloaded {
		t.Errorf("code = %q, want %q", ae.Code, CodeOverloaded)
	}
	if !ae.Retryable {
		t.Error("overloaded must be retryable")
	}
	if ae.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", ae.RetryAfter)
	}
	if !strings.Contains(ae.Message, `"main"`) {
		t.Errorf("message %q lost its formatting args", ae.Message)
	}
	if !strings.Contains(ae.Error(), CodeOverloaded) {
		t.Errorf("Error() = %q should name the code", ae.Error())
	}
}

func TestRetriesRetryableThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			WriteErrorRetryAfter(w, http.StatusServiceUnavailable, CodeOverloaded, time.Second, "shedding")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, VersionInfo{API: "v1", MaxCores: 256})
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts(WithRetries(2))...)
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatalf("Version after retries: %v", err)
	}
	if v.API != "v1" || v.MaxCores != 256 {
		t.Errorf("decoded %+v, want API=v1 MaxCores=256", v)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two shed + one success)", got)
	}
}

func TestDoesNotRetryDeterministicRejections(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusBadRequest, CodeInvalidRequest, "no")
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts(WithRetries(5))...)
	_, err := c.Scenario(context.Background(), "deadbeef")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeInvalidRequest {
		t.Fatalf("want invalid_request APIError, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want exactly 1 (400 is not retryable)", got)
	}
}

func TestRetriesBareServerErrorsWithoutEnvelope(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "proxy hiccup", http.StatusBadGateway)
			return
		}
		EncodeJSON(w, VersionInfo{API: "v1"})
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts(WithRetries(1))...)
	if _, err := c.Version(context.Background()); err != nil {
		t.Fatalf("want success after bare-502 retry, got %v", err)
	}
}

func TestNonEnvelopeBodyBecomesMessage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text not found", http.StatusNotFound)
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts(WithRetries(0))...)
	_, err := c.Scenario(context.Background(), "nope")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if ae.Code != "" {
		t.Errorf("code = %q, want empty for non-envelope body", ae.Code)
	}
	if ae.Message != "plain text not found" {
		t.Errorf("message = %q", ae.Message)
	}
}

func TestAPIKeyHeaderAndPaths(t *testing.T) {
	type seen struct{ path, auth string }
	var got seen
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = seen{path: r.URL.Path, auth: r.Header.Get("Authorization")}
		EncodeJSON(w, SubmitScenariosResponse{})
	}))
	defer srv.Close()

	c := New(srv.URL+"/", fastOpts(WithAPIKey("sekrit"))...) // trailing slash trimmed
	if _, err := c.SubmitScenarios(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got.path != "/v1/scenarios" {
		t.Errorf("path = %q, want /v1/scenarios", got.path)
	}
	if got.auth != "Bearer sekrit" {
		t.Errorf("Authorization = %q, want Bearer sekrit", got.auth)
	}
}

func TestSweepReturnsRawRenderedBody(t *testing.T) {
	const rendered = "Table 1\ncol a  col b\n1.00   2.00\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweeps" || r.URL.Query().Get("format") != "text" {
			t.Errorf("unexpected request %s?%s", r.URL.Path, r.URL.RawQuery)
		}
		var doc map[string]any
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Errorf("sweep body not JSON: %v", err)
		}
		w.Write([]byte(rendered))
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts()...)
	out, err := c.Sweep(context.Background(), []byte(`{"name":"t1"}`), "text")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != rendered {
		t.Errorf("sweep body = %q, want %q", out, rendered)
	}
}

func TestLeaseProtocolRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Worker != "w1" || req.Max != 2 {
			t.Errorf("lease request %+v", req)
		}
		EncodeJSON(w, LeaseResponse{TTLMillis: 1500, Jobs: []LeasedJob{{Key: "k1"}}})
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		EncodeJSON(w, HeartbeatResponse{Lost: []string{"k9"}})
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Error != "boom" {
			t.Errorf("complete error = %q", req.Error)
		}
		EncodeJSON(w, CompleteResponse{Accepted: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := New(srv.URL, fastOpts()...)
	ctx := context.Background()
	jobs, ttl, err := c.Lease(ctx, "w1", 2)
	if err != nil || len(jobs) != 1 || jobs[0].Key != "k1" || ttl != 1500*time.Millisecond {
		t.Fatalf("lease = %v ttl=%v err=%v", jobs, ttl, err)
	}
	lost, err := c.Heartbeat(ctx, "w1", []string{"k1"})
	if err != nil || len(lost) != 1 || lost[0] != "k9" {
		t.Fatalf("heartbeat = %v err=%v", lost, err)
	}
	accepted, err := c.Complete(ctx, "w1", "k1", sim.ScenarioResult{}, "boom")
	if err != nil || !accepted {
		t.Fatalf("complete accepted=%v err=%v", accepted, err)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteErrorRetryAfter(w, http.StatusServiceUnavailable, CodeOverloaded, time.Hour, "always down")
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Large RetryAfter is capped by maxBackoff; with a generous cap the
	// ctx deadline must break the wait instead.
	c := New(srv.URL, WithRetries(3), WithMaxBackoff(time.Minute))
	start := time.Now()
	_, err := c.Version(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored context cancel (took %v)", elapsed)
	}
}

func TestRetryableCodeTable(t *testing.T) {
	for code, want := range map[string]bool{
		CodeInvalidRequest: false,
		CodeInvalidSpec:    false,
		CodeUnauthorized:   false,
		CodeNotFound:       false,
		CodeOverloaded:     true,
		CodeShuttingDown:   true,
		CodeInterrupted:    true,
		CodeInternal:       false,
		"unknown_code":     false,
	} {
		if got := Retryable(code); got != want {
			t.Errorf("Retryable(%q) = %v, want %v", code, got, want)
		}
	}
}

// TestParseRetryAfterBothForms is the regression test for the header
// parser accepting only delay-seconds: RFC 9110 also allows the
// HTTP-date form, which used to fall back silently to the default
// backoff.
func TestParseRetryAfterBothForms(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // date in the past
		{"soon", 0}, // garbage falls back to default backoff
		{"", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRetryAfterHTTPDateHeader drives the date form through a real
// response: the decoded APIError carries the delay until the date.
func TestRetryAfterHTTPDateHeader(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
		WriteError(w, http.StatusServiceUnavailable, CodeOverloaded, "shedding load")
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts(WithRetries(0))...)
	_, err := c.Version(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	// Allow scheduling slack between the header being stamped and the
	// client parsing it.
	if ae.RetryAfter <= 20*time.Second || ae.RetryAfter > 30*time.Second {
		t.Errorf("RetryAfter = %v, want ~30s from an HTTP-date header", ae.RetryAfter)
	}
}

// TestClientDrainIsBounded: the drain that keeps connections reusable
// reads a bounded remainder, so a body that never ends after its JSON
// value does not hold the call.
func TestClientDrainIsBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		EncodeJSON(w, VersionInfo{API: "v1", MaxCores: 256})
		pad := []byte(strings.Repeat(" ", 4096))
		for r.Context().Err() == nil {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	type reply struct {
		v   VersionInfo
		err error
	}
	got := make(chan reply, 1)
	go func() {
		v, err := New(srv.URL, fastOpts(WithRetries(0))...).Version(context.Background())
		got <- reply{v, err}
	}()
	select {
	case r := <-got:
		if r.err != nil || r.v.API != "v1" || r.v.MaxCores != 256 {
			t.Fatalf("Version = %+v, %v; want API=v1 MaxCores=256", r.v, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a response that never ends held the call")
	}
}

// TestClientDrainKeepsConnection: a large JSON body written in one
// piece goes out chunked, and the decoder stops before its last chunk.
// The client drains that remainder, so ten calls share one connection;
// without the drain every call dials anew.
func TestClientDrainKeepsConnection(t *testing.T) {
	resp := SubmitScenariosResponse{Scenarios: make([]ScenarioStatus, 200)}
	for i := range resp.Scenarios {
		resp.Scenarios[i] = ScenarioStatus{
			Key:        fmt.Sprintf("%064x", i),
			Status:     StatusDone,
			Cores:      1,
			Workloads:  []string{"Oracle"},
			Mechanisms: []string{"shotgun"},
		}
	}
	var body bytes.Buffer
	EncodeJSON(&body, resp)
	if body.Len() < 20<<10 {
		t.Fatalf("body is %d bytes; it must exceed the server's buffer to go out chunked", body.Len())
	}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write(body.Bytes())
	}))
	var dials atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	tr := &http.Transport{}
	t.Cleanup(func() { tr.CloseIdleConnections(); srv.Close() })

	c := New(srv.URL, WithHTTPClient(&http.Client{Transport: tr}))
	for i := 0; i < 10; i++ {
		sts, err := c.SubmitScenarios(context.Background(), nil)
		if err != nil || len(sts) != 200 {
			t.Fatalf("call %d: %d statuses, %v", i, len(sts), err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client opened %d connections, want 1", n)
	}
}
