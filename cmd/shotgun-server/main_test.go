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
		{"worker with store shards", []string{"-join", "http://x:1", "-store-shards", "http://y:1"}, "drop -store-shards"},
		{"empty join list", []string{"-join", " , "}, "at least one coordinator URL"},
		{"standby without coordinator", []string{"-standby"}, "requires -coordinator"},
		{"shard without store", []string{"-shard"}, "requires -store"},
		{"shard with coordinator", []string{"-shard", "-store", "./s", "-coordinator"}, "own role"},
		{"shard with store shards", []string{"-shard", "-store", "./s", "-store-shards", "http://x:1"}, "front-end"},
		{"shard with tenants", []string{"-shard", "-store", "./s", "-tenants", "t.json"}, "drop -tenants"},
		{"negative replicas", []string{"-store-replicas", "-1"}, "positive"},
		{"replicas without shards", []string{"-store-replicas", "2"}, "requires -store-shards"},
		{"store shards with store", []string{"-store-shards", "http://x:1", "-store", "./s"}, "mutually exclusive"},
		{"empty shard list", []string{"-store-shards", ","}, "at least one shard URL"},
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
	if opts.shard || opts.standby || opts.storeShards != "" || opts.storeReplicas != 0 {
		t.Fatalf("sharding defaults wrong: %+v (local store, active role must be the zero-flag default)", opts)
	}

	// With a shard list and no explicit factor, replication defaults on.
	opts, err = parseOptions([]string{"-store-shards", "http://a:1,http://b:1,http://c:1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.storeReplicas != 2 {
		t.Fatalf("store-replicas default = %d, want 2", opts.storeReplicas)
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

	if code, body := get("/v1/version", ""); code != http.StatusOK {
		t.Fatalf("/v1/version is exempt, got %d: %s", code, body)
	} else if !strings.Contains(string(body), `"auth_required": true`) {
		t.Fatalf("/v1/version does not advertise auth: %s", body)
	}
	if code, body := get("/v1/sims/nope", ""); code != http.StatusUnauthorized ||
		!strings.Contains(string(body), "unauthorized") {
		t.Fatalf("unkeyed request: %d %s, want 401 envelope", code, body)
	}
	if code, _ := get("/v1/sims/nope", "key-acme"); code != http.StatusNotFound {
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
	body := `{"configs":[{"Workload":"Nutch","Mechanism":"none"}]}`
	resp, err := http.Post("http://"+addr+"/v1/sims", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Sims []struct {
			Key string `json:"key"`
		} `json:"sims"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Sims) != 1 {
		t.Fatalf("submit: %v %+v", err, sub)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/sims/" + sub.Sims[0].Key)
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

// TestShardedStoreSmoke boots the full sharded topology out of the real
// binary paths: two -shard nodes plus a front-end routing records to
// them with -store-shards. One quick simulation must land replicated on
// the shards, be served back by key, and show up in the shard health
// metrics.
func TestShardedStoreSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two shard nodes on their own directories.
	shardAddrs := make([]string, 2)
	shardDone := make([]chan int, 2)
	var shardOut, shardErr [2]syncBuffer
	for i := range shardAddrs {
		done := make(chan int, 1)
		args := []string{"-shard", "-addr", "127.0.0.1:0", "-store", t.TempDir()}
		out, errBuf := &shardOut[i], &shardErr[i]
		go func() { done <- run(ctx, args, out, errBuf) }()
		shardAddrs[i] = waitListen(t, out, errBuf)
		shardDone[i] = done
	}

	// The front-end: a plain single-node server whose store is the ring.
	var out, errBuf syncBuffer
	frontDone := make(chan int, 1)
	go func() {
		frontDone <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-scale", "quick", "-parallel", "1",
			"-store-shards", "http://" + shardAddrs[0] + ",http://" + shardAddrs[1],
		}, &out, &errBuf)
	}()
	addr := waitListen(t, &out, &errBuf)
	if !strings.Contains(out.String(), "sharded over 2 shards, 2 replicas") {
		t.Fatalf("sharded store not announced: %q", out.String())
	}

	body := `{"configs":[{"Workload":"Nutch","Mechanism":"none"}]}`
	resp, err := http.Post("http://"+addr+"/v1/sims", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		Sims []struct {
			Key string `json:"key"`
		} `json:"sims"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Sims) != 1 {
		t.Fatalf("submit: %v %+v", err, sub)
	}
	key := sub.Sims[0].Key

	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/sims/" + key)
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
			t.Fatalf("job stuck at %q; stderr: %q", st.Status, errBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Replication 2 over 2 shards: the record must sit on BOTH shard
	// nodes, reachable over the raw shard protocol.
	for i, sa := range shardAddrs {
		resp, err := http.Get("http://" + sa + "/shard/v1/records/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d does not hold the record (status %d)", i, resp.StatusCode)
		}
	}

	// The shard health families are on the front-end's scrape.
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shotgun_store_shard_up{", "shotgun_store_shard_records{"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	cancel()
	for name, ch := range map[string]chan int{
		"front-end": frontDone, "shard0": shardDone[0], "shard1": shardDone[1],
	} {
		select {
		case code := <-ch:
			if code != 0 {
				t.Fatalf("%s exit code %d", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not shut down", name)
		}
	}
}
