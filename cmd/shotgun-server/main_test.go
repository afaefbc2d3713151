package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"shotgun/internal/client"
)

func TestParseOptionsRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad scale", []string{"-scale", "medium"}, "quick or full"},
		{"zero parallel", []string{"-parallel", "0"}, "positive"},
		{"negative parallel", []string{"-parallel", "-2"}, "positive"},
		{"negative store budget", []string{"-store-max-bytes", "-1"}, "non-negative"},
		{"budget without store", []string{"-store-max-bytes", "1000"}, "requires -store"},
		{"zero shutdown timeout", []string{"-shutdown-timeout", "0s"}, "positive"},
		{"zero lease ttl", []string{"-coordinator", "-lease-ttl", "0s"}, "positive"},
		{"join and coordinator", []string{"-join", "http://x:1", "-coordinator"}, "mutually exclusive"},
		{"worker with store", []string{"-join", "http://x:1", "-store", "./s"}, "drop -store"},
		{"worker id without join", []string{"-worker-id", "w1"}, "requires -join"},
		{"negative max queue", []string{"-max-queue", "-1"}, "non-negative"},
		{"bad log format", []string{"-log", "xml"}, "off, text or json"},
		{"worker with api key", []string{"-join", "http://x:1", "-api-key", "x"}, "drop -api-key"},
		{"api key with spaces", []string{"-api-key", " k "}, "surrounding spaces"},
		{"api key with newline", []string{"-api-key", "k\nk"}, "control characters"},
		{"empty join list", []string{"-join", " , "}, "at least one coordinator URL"},
		{"join list", []string{"-join", "http://a:1,http://b:1"}, "takes one coordinator URL"},
		{"worker with scale", []string{"-join", "http://x:1", "-scale", "quick"}, "drop -scale"},
		{"worker with addr", []string{"-join", "http://x:1", "-addr", ":9090"}, "drop -addr"},
		{"worker with max queue", []string{"-join", "http://x:1", "-max-queue", "10"}, "drop -max-queue"},
		{"worker with log", []string{"-join", "http://x:1", "-log", "json"}, "drop -log"},
		{"worker with shutdown timeout", []string{"-join", "http://x:1", "-shutdown-timeout", "5s"}, "drop -shutdown-timeout"},
		{"worker with lease ttl", []string{"-join", "http://x:1", "-lease-ttl", "5s"}, "drop -lease-ttl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q missing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseOptionsDefaults(t *testing.T) {
	t.Setenv(apiKeyEnv, "")
	opts, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.scale != "full" || opts.addr != ":8080" || opts.parallel < 1 {
		t.Fatalf("defaults wrong: %+v", opts)
	}
	if opts.shutdownTimeout != 10*time.Second {
		t.Fatalf("shutdown timeout default = %v", opts.shutdownTimeout)
	}
	if opts.coordinator || opts.join != "" || opts.leaseTTL != 30*time.Second {
		t.Fatalf("cluster defaults wrong: %+v (single-node must be the zero-flag default)", opts)
	}
	if opts.maxQueue != 0 || opts.apiKey != "" || opts.logFormat != "off" {
		t.Fatalf("farm defaults wrong: %+v (unbounded queue, open access, no log)", opts)
	}
}

// TestAPIKeySources covers where the key comes from: -api-key wins
// over SHOTGUN_API_KEY, the environment fills in when the flag is
// absent, and a -join worker, which may not take the flag, reads the
// environment.
func TestAPIKeySources(t *testing.T) {
	t.Setenv(apiKeyEnv, "from-env")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-api-key", "from-flag"}, "from-flag"},
		{nil, "from-env"},
		{[]string{"-join", "http://x:1"}, "from-env"},
	} {
		opts, err := parseOptions(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("args %v: %v", tc.args, err)
		}
		if opts.apiKey != tc.want {
			t.Errorf("args %v: key %q, want %q", tc.args, opts.apiKey, tc.want)
		}
	}
	t.Setenv(apiKeyEnv, "")
	if opts, err := parseOptions(nil, io.Discard); err != nil || opts.apiKey != "" {
		t.Fatalf("no source must mean open access: key %q err %v", opts.apiKey, err)
	}
}

// syncBuffer lets the test read the server's stdout while run is still
// writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on ([^ ]+)`)

// TestGracefulShutdown boots the real server on an ephemeral port,
// waits for it to serve, cancels the signal context (what SIGTERM does
// in production) and asserts a clean, complete drain.
func TestGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	var errBuf syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "quick", "-parallel", "1"}, &out, &errBuf)
	}()

	// Wait for the announced address, then confirm liveness.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stdout: %q stderr: %q", out.String(), errBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %q", code, errBuf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
	if !strings.Contains(out.String(), "shutdown complete") {
		t.Fatalf("drain never completed; stdout: %q", out.String())
	}
	// The listener must actually be gone.
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// waitListen spins until a run() goroutine announces its address.
func waitListen(t *testing.T, out *syncBuffer, errBuf *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stdout: %q stderr: %q", out.String(), errBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// do sends one request to addr, with the bearer key when key is not
// empty, and returns the status and the body.
func do(t *testing.T, method, addr, path, key, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestAuthedServerSmoke boots run() as a coordinator with -api-key and
// checks the wiring end to end: the startup line announces auth,
// exempt routes stay open, unkeyed requests bounce with the envelope
// on the public API and the lease routes alike, and keyed ones pass.
func TestAuthedServerSmoke(t *testing.T) {
	t.Setenv(apiKeyEnv, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errBuf syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-scale", "quick", "-coordinator",
			"-api-key", "key-smoke", "-log", "json", "-max-queue", "100",
		}, &out, &errBuf)
	}()
	addr := waitListen(t, &out, &errBuf)
	if !strings.Contains(out.String(), "auth on") {
		t.Fatalf("startup never announced auth: %q", out.String())
	}

	var version client.VersionInfo
	if code, body := do(t, http.MethodGet, addr, "/v1/version", "", ""); code != http.StatusOK {
		t.Fatalf("/v1/version is exempt, got %d: %s", code, body)
	} else if json.Unmarshal(body, &version) != nil || !version.AuthRequired {
		t.Fatalf("/v1/version does not advertise auth: %s", body)
	}
	for _, route := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/scenarios/nope", ""},
		{http.MethodGet, "/v1/cluster", ""},
		{http.MethodPost, "/v1/lease", `{"worker":"w","max":1}`},
		{http.MethodPost, "/v1/heartbeat", `{"worker":"w","keys":[]}`},
		{http.MethodPost, "/v1/complete", `{"worker":"w","key":"k"}`},
	} {
		if code, body := do(t, route.method, addr, route.path, "", route.body); code != http.StatusUnauthorized ||
			!strings.Contains(string(body), "unauthorized") {
			t.Fatalf("unkeyed %s %s: %d %s, want 401 envelope", route.method, route.path, code, body)
		}
	}
	if code, _ := do(t, http.MethodGet, addr, "/v1/scenarios/nope", "key-smoke", ""); code != http.StatusNotFound {
		t.Fatalf("keyed request: %d, want 404 (past auth)", code)
	}
	if code, body := do(t, http.MethodPost, addr, "/v1/lease", "key-smoke", `{"worker":"w","max":1}`); code != http.StatusOK {
		t.Fatalf("keyed lease: %d %s, want 200", code, body)
	}
	if code, _ := do(t, http.MethodGet, addr, "/metrics", "", ""); code != http.StatusOK {
		t.Fatalf("/metrics is exempt, got %d", code)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %q", code, errBuf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after cancel")
	}
	// -log json routes the access log to stdout: the requests above must
	// have left structured lines behind, the lease routes' among them.
	if !strings.Contains(out.String(), `"msg":"request"`) || !strings.Contains(out.String(), `"path":"/v1/lease"`) {
		t.Fatalf("no structured request log in stdout: %q", out.String())
	}
}

// TestCoordinatorWorkerSmoke boots the real binary paths of both
// cluster roles — a coordinator run() and a worker run() — submits one
// simulation over HTTP, and asserts the worker leases, simulates and
// pushes it back to "done". This is the two-terminal README walkthrough
// as a test, on a keyed farm: the worker gets the key from
// SHOTGUN_API_KEY only.
func TestCoordinatorWorkerSmoke(t *testing.T) {
	const key = "key-farm"
	t.Setenv(apiKeyEnv, key)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var coordOut, coordErr syncBuffer
	coordDone := make(chan int, 1)
	go func() {
		coordDone <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-scale", "quick", "-coordinator",
			"-lease-ttl", "5s", "-store", t.TempDir(), "-api-key", key,
		}, &coordOut, &coordErr)
	}()
	addr := waitListen(t, &coordOut, &coordErr)
	if !strings.Contains(coordOut.String(), "coordinator") {
		t.Fatalf("coordinator mode not announced: %q", coordOut.String())
	}

	var workerOut, workerErr syncBuffer
	workerDone := make(chan int, 1)
	go func() {
		workerDone <- run(ctx, []string{
			"-join", "http://" + addr, "-worker-id", "smoke-worker", "-parallel", "1",
		}, &workerOut, &workerErr)
	}()

	// Submit one quick simulation and poll it to completion.
	code, raw := do(t, http.MethodPost, addr, "/v1/scenarios", key,
		`{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none"}]}]}`)
	var sub struct {
		Scenarios []struct {
			Key string `json:"key"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || code != http.StatusAccepted || len(sub.Scenarios) != 1 {
		t.Fatalf("submit: %d %v %s", code, err, raw)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		_, raw := do(t, http.MethodGet, addr, "/v1/scenarios/"+sub.Scenarios[0].Key, key, "")
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %q; worker: %q %q", st.Status, workerOut.String(), workerErr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The cluster endpoint reports the lease traffic.
	_, raw = do(t, http.MethodGet, addr, "/v1/cluster", key, "")
	var cs struct {
		Completed uint64 `json:"completed"`
	}
	if err := json.Unmarshal(raw, &cs); err != nil || cs.Completed != 1 {
		t.Fatalf("cluster stats: %v %s", err, raw)
	}

	cancel()
	for name, ch := range map[string]chan int{"coordinator": coordDone, "worker": workerDone} {
		select {
		case code := <-ch:
			if code != 0 {
				t.Fatalf("%s exit code %d", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not shut down", name)
		}
	}
	if !strings.Contains(workerOut.String(), "shutdown complete") {
		t.Fatalf("worker never drained: %q", workerOut.String())
	}
}
