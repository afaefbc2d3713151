package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
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
		{"negative fair slots", []string{"-fair-slots", "-5"}, "non-negative"},
		{"bad log format", []string{"-log", "xml"}, "off, text or json"},
		{"worker with tenants", []string{"-join", "http://x:1", "-tenants", "t.json"}, "drop -tenants"},
		{"empty join list", []string{"-join", " , "}, "at least one coordinator URL"},
		{"join list", []string{"-join", "http://a:1,http://b:1"}, "takes one coordinator URL"},
		{"worker with scale", []string{"-join", "http://x:1", "-scale", "quick"}, "drop -scale"},
		{"worker with addr", []string{"-join", "http://x:1", "-addr", ":9090"}, "drop -addr"},
		{"worker with max queue", []string{"-join", "http://x:1", "-max-queue", "10"}, "drop -max-queue"},
		{"worker with fair slots", []string{"-join", "http://x:1", "-fair-slots", "4"}, "drop -fair-slots"},
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
	if opts.maxQueue != 0 || opts.fairSlots != 0 || opts.tenantsPath != "" || opts.logFormat != "off" {
		t.Fatalf("farm defaults wrong: %+v (unbounded queue, derived slots, open access, no log)", opts)
	}
}

// TestLoadTenantsSources covers the registry resolution order: the
// SHOTGUN_TENANTS document wins over the -tenants file, the file loads
// when the env is empty, and no source at all means open access.
func TestLoadTenantsSources(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"filetenant","key":"kf"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Setenv(tenantsEnv, `{"tenants":[{"name":"envtenant","key":"ke"}]}`)
	reg, source, err := loadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	if source != "$"+tenantsEnv {
		t.Fatalf("source = %q, want the env var", source)
	}
	if _, ok := reg.Lookup("ke"); !ok {
		t.Fatal("env registry not loaded")
	}
	if _, ok := reg.Lookup("kf"); ok {
		t.Fatal("file registry leaked through despite the env override")
	}

	t.Setenv(tenantsEnv, `{`)
	if _, _, err := loadTenants(path); err == nil || !strings.Contains(err.Error(), tenantsEnv) {
		t.Fatalf("broken env doc: err %v, want one naming %s", err, tenantsEnv)
	}

	t.Setenv(tenantsEnv, "")
	reg, source, err = loadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	if source != path {
		t.Fatalf("source = %q, want the file path", source)
	}
	if _, ok := reg.Lookup("kf"); !ok {
		t.Fatal("file registry not loaded")
	}

	reg, _, err = loadTenants("")
	if err != nil || reg != nil {
		t.Fatalf("no source must mean open access: reg %v err %v", reg, err)
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

// TestAuthedServerSmoke boots run() with a -tenants file and checks the
// wiring end to end: the startup line announces auth, exempt routes stay
// open, unkeyed API requests bounce with the envelope, and a keyed
// request passes.
func TestAuthedServerSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"acme","key":"key-acme"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errBuf syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-scale", "quick", "-parallel", "1",
			"-tenants", path, "-log", "json", "-max-queue", "100",
		}, &out, &errBuf)
	}()
	addr := waitListen(t, &out, &errBuf)
	if !strings.Contains(out.String(), "auth on") {
		t.Fatalf("startup never announced auth: %q", out.String())
	}

	get := func(path, key string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
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
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	var version client.VersionInfo
	if code, body := get("/v1/version", ""); code != http.StatusOK {
		t.Fatalf("/v1/version is exempt, got %d: %s", code, body)
	} else if json.Unmarshal(body, &version) != nil || !version.AuthRequired {
		t.Fatalf("/v1/version does not advertise auth: %s", body)
	}
	if code, body := get("/v1/scenarios/nope", ""); code != http.StatusUnauthorized ||
		!strings.Contains(string(body), "unauthorized") {
		t.Fatalf("unkeyed request: %d %s, want 401 envelope", code, body)
	}
	if code, _ := get("/v1/scenarios/nope", "key-acme"); code != http.StatusNotFound {
		t.Fatalf("keyed request: %d, want 404 (past auth)", code)
	}
	if code, _ := get("/metrics", ""); code != http.StatusOK {
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
	// have left structured lines behind.
	if !strings.Contains(out.String(), `"msg":"request"`) {
		t.Fatalf("no structured request log in stdout: %q", out.String())
	}
}

// TestCoordinatorWorkerSmoke boots the real binary paths of both
// cluster roles — a coordinator run() and a worker run() — submits one
// simulation over HTTP, and asserts the worker leases, simulates and
// pushes it back to "done". This is the two-terminal README walkthrough
// as a test.
func TestCoordinatorWorkerSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var coordOut, coordErr syncBuffer
	coordDone := make(chan int, 1)
	go func() {
		coordDone <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-scale", "quick", "-coordinator",
			"-lease-ttl", "5s", "-store", t.TempDir(),
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
	body := `{"scenarios":[{"Cores":[{"Workload":"Nutch","Mechanism":"none"}]}]}`
	resp, err := http.Post("http://"+addr+"/v1/scenarios", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Scenarios []struct {
			Key string `json:"key"`
		} `json:"scenarios"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Scenarios) != 1 {
		t.Fatalf("submit: %v %+v", err, sub)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/scenarios/" + sub.Scenarios[0].Key)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
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
	resp, err = http.Get("http://" + addr + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cs struct {
		Completed uint64 `json:"completed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil || cs.Completed != 1 {
		t.Fatalf("cluster stats: %v %+v", err, cs)
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
