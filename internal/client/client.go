package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"shotgun/internal/sim"
)

// maxErrorBody bounds how much of a non-envelope error body is kept as
// the APIError message.
const maxErrorBody = 512

// maxDrainBody bounds how much of a response's unread remainder is
// discarded to keep its connection reusable; a longer remainder costs
// the connection instead.
const maxDrainBody = 64 << 10

// Client is the typed v1 API client: every method speaks the wire
// types in this package, decodes the error envelope into *APIError,
// and (when configured with retries) resubmits retryable failures —
// retryable envelopes honoring Retry-After, plus transport errors and
// bare 5xx/429s — with capped backoff. Content-key dedup makes every
// resubmission safe: an accepted-then-retried batch lands on the same
// jobs.
type Client struct {
	base       string
	apiKey     string
	hc         *http.Client
	retries    int
	maxBackoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey sends the key as "Authorization: Bearer <key>" on every
// request.
func WithAPIKey(key string) Option { return func(c *Client) { c.apiKey = key } }

// WithHTTPClient swaps the underlying http.Client (default: 30s
// timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a retryable failure is retried
// (default 2; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithMaxBackoff caps the wait between attempts, including waits asked
// for by Retry-After (default 5s).
func WithMaxBackoff(d time.Duration) Option { return func(c *Client) { c.maxBackoff = d } }

// New builds a client for the server at base (e.g.
// "http://coord:8080"); a trailing slash is trimmed.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		retries:    2,
		maxBackoff: 5 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Version preflights compatibility: API version, store format
// generation, core bound, scale, auth requirement.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var out VersionInfo
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, &out)
	return out, err
}

// SubmitScenarios enqueues multi-core scenarios via POST /v1/scenarios.
func (c *Client) SubmitScenarios(ctx context.Context, scs []sim.Scenario) ([]ScenarioStatus, error) {
	var out SubmitScenariosResponse
	err := c.do(ctx, http.MethodPost, "/v1/scenarios", SubmitScenariosRequest{Scenarios: scs}, &out)
	return out.Scenarios, err
}

// Scenario polls one scenario job by content key.
func (c *Client) Scenario(ctx context.Context, key string) (ScenarioStatus, error) {
	var out ScenarioStatus
	err := c.do(ctx, http.MethodGet, "/v1/scenarios/"+key, nil, &out)
	return out, err
}

// Sweep posts a spec document to POST /v1/sweeps and returns the raw
// rendered response body (json, csv or text per format; "" means the
// server default). The call blocks until the sweep finishes; dedup by
// content key makes a retried sweep land on the same jobs.
func (c *Client) Sweep(ctx context.Context, specJSON []byte, format string) ([]byte, error) {
	path := "/v1/sweeps"
	if format != "" {
		path += "?format=" + format
	}
	var raw rawBody
	if err := c.do(ctx, http.MethodPost, path, json.RawMessage(specJSON), &raw); err != nil {
		return nil, err
	}
	return raw.data, nil
}

// Lease asks the coordinator for up to max jobs on behalf of worker,
// returning the granted jobs and the TTL each must heartbeat within.
func (c *Client) Lease(ctx context.Context, worker string, max int) ([]LeasedJob, time.Duration, error) {
	var out LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/lease", LeaseRequest{Worker: worker, Max: max}, &out)
	return out.Jobs, time.Duration(out.TTLMillis) * time.Millisecond, err
}

// Heartbeat renews worker's leases, returning the keys it no longer
// owns.
func (c *Client) Heartbeat(ctx context.Context, worker string, keys []string) ([]string, error) {
	var out HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/heartbeat", HeartbeatRequest{Worker: worker, Keys: keys}, &out)
	return out.Lost, err
}

// Complete pushes one finished job (or its failure message) back to
// the coordinator, reporting whether this push finished the job.
func (c *Client) Complete(ctx context.Context, worker, key string, res sim.ScenarioResult, errMsg string) (bool, error) {
	var out CompleteResponse
	err := c.do(ctx, http.MethodPost, "/v1/complete",
		CompleteRequest{Worker: worker, Key: key, Result: res, Error: errMsg}, &out)
	return out.Accepted, err
}

// rawBody is an out-sentinel telling do to hand back the response
// bytes instead of JSON-decoding them (sweeps render csv/text too).
type rawBody struct{ data []byte }

// do runs one request with the retry policy. in non-nil is marshaled
// as the JSON body; out receives the 2xx response (JSON-decoded, or
// raw via *rawBody; nil discards it).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := c.wait(ctx, lastErr, attempt); err != nil {
				return lastErr
			}
		}
		lastErr = c.once(ctx, method, path, body, out)
		if lastErr == nil {
			return nil
		}
		if !retryableErr(lastErr) || ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// wait sleeps before a retry: the server's Retry-After when it gave
// one, else a linear backoff — both capped at maxBackoff — and returns
// early when ctx dies.
func (c *Client) wait(ctx context.Context, lastErr error, attempt int) error {
	d := time.Duration(attempt) * 250 * time.Millisecond
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		d = ae.RetryAfter
	}
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableErr decides whether an attempt's failure is worth retrying:
// envelope-retryable responses, bare 5xx/429 responses, and transport
// errors. Deterministic rejections (4xx) can never succeed on a
// resend.
func retryableErr(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Code != "" {
			return ae.Retryable
		}
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests
	}
	return true // transport error: connection refused, timeout, ...
}

// once is a single request/response round trip.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// A decoder stops at the end of its value, before the rest of
		// the body (a trailing newline, a chunked body's last chunk);
		// closing then drops the connection. Draining lets the
		// transport reuse it, and the bound keeps a body that never
		// ends from holding the call.
		io.CopyN(io.Discard, resp.Body, maxDrainBody)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp, path)
	}
	switch v := out.(type) {
	case nil:
		return nil
	case *rawBody:
		v.data, err = io.ReadAll(resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// decodeError turns a non-2xx response into an *APIError, tolerating
// bodies that are not the envelope (the raw prefix becomes the
// message).
func decodeError(resp *http.Response, path string) error {
	ae := &APIError{Status: resp.StatusCode, Path: path}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		ae.RetryAfter = parseRetryAfter(ra, time.Now())
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		ae.ErrorInfo = env.Error
		return ae
	}
	ae.Message = string(bytes.TrimSpace(raw))
	return ae
}

// parseRetryAfter parses a Retry-After header value, which RFC 9110
// allows in two forms: delay-seconds ("120") and HTTP-date ("Fri, 07
// Aug 2026 09:00:00 GMT"). The date form yields the delay until that
// instant relative to now. Unparseable or non-positive values return 0
// — the caller falls back to its own backoff.
func parseRetryAfter(ra string, now time.Time) time.Duration {
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if at, err := http.ParseTime(ra); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// WriteJSON writes a 200 JSON response the way every v1 handler does
// (compact, correct Content-Type), so server and coordinator bodies
// stay byte-compatible with each other and with this client.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	EncodeJSON(w, v)
}

// EncodeJSON is the one encoder of every v1 response body: compact
// JSON and a trailing newline. Whitespace is not part of the wire
// contract.
func EncodeJSON(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}

// String renders an ErrorInfo for logs.
func (e ErrorInfo) String() string {
	return fmt.Sprintf("%s: %s (retryable=%v)", e.Code, e.Message, e.Retryable)
}
