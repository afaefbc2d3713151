package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shotgun/internal/client"
)

func TestParseOptionsRejectsNonPositiveParallel(t *testing.T) {
	// The seed accepted -parallel 0 and silently fell back to one
	// worker; it must now be a hard flag error.
	for _, bad := range []string{"0", "-1", "-8"} {
		var errBuf strings.Builder
		_, err := parseOptions([]string{"-parallel", bad}, &errBuf)
		if err == nil {
			t.Fatalf("-parallel %s accepted", bad)
		}
		if !strings.Contains(err.Error(), "must be positive") {
			t.Fatalf("-parallel %s: unhelpful error %q", bad, err)
		}
	}
}

func TestParseOptionsRejectsUnknownExperiment(t *testing.T) {
	_, err := parseOptions([]string{"-only", "fig7,nope"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown -only id not rejected: %v", err)
	}
}

func TestParseOptionsSelectsExperiments(t *testing.T) {
	opts, err := parseOptions([]string{"-only", "fig7, fig9", "-quick", "-json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.run) != 2 || opts.run[0].ID != "fig7" || opts.run[1].ID != "fig9" {
		t.Fatalf("selection wrong: %+v", opts.run)
	}
	if !opts.quick || !opts.jsonOut {
		t.Fatalf("mode flags lost: %+v", opts)
	}
}

func TestParseOptionsDefaultsToAllExperiments(t *testing.T) {
	opts, err := parseOptions(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.run) != 18 {
		t.Fatalf("default selection has %d experiments, want 18", len(opts.run))
	}
	if opts.parallel < 1 {
		t.Fatalf("default parallel %d", opts.parallel)
	}
}

func TestParseOptionsDeduplicatesOnly(t *testing.T) {
	// A repeated id must run, and land in the report, once.
	opts, err := parseOptions([]string{"-only", "fig7,fig9, fig7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.run) != 2 || opts.run[0].ID != "fig7" || opts.run[1].ID != "fig9" {
		t.Fatalf("selection = %+v, want [fig7 fig9]", opts.run)
	}
}

func TestParseOptionsStoreBudget(t *testing.T) {
	if _, err := parseOptions([]string{"-store-max-bytes", "-5"}, io.Discard); err == nil {
		t.Fatal("negative store budget accepted")
	}
	if _, err := parseOptions([]string{"-store-max-bytes", "100"}, io.Discard); err == nil {
		t.Fatal("store budget without -store accepted")
	}
}

func TestHelpExitsZero(t *testing.T) {
	// -h must exit 0 (like flag.ExitOnError does), not report failure.
	var out, errBuf strings.Builder
	if code := run([]string{"-h"}, &out, &errBuf); code != 0 {
		t.Fatalf("-h exited %d, want 0\nstderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-parallel") {
		t.Fatalf("usage text missing from -h output: %q", errBuf.String())
	}
}

func TestParseOptionsRejectsUnknownFlag(t *testing.T) {
	var errBuf strings.Builder
	_, err := parseOptions([]string{"-frobnicate"}, &errBuf)
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(errBuf.String(), "frobnicate") {
		t.Fatalf("flag error not reported to stderr: %q", errBuf.String())
	}
}

// writeSpec writes a spec file into a temp dir and returns its path.
func writeSpec(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinySpecBody = `{
  "version": 1, "name": "tiny",
  "tables": [{"id": "tinytable", "title": "t", "grid": {
    "workloads": ["Nutch"],
    "columns": [{"name": "none", "config": {"mechanism": "none"}}],
    "metric": "ipc"}}]
}`

func TestParseOptionsSpecCatalog(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpecBody)

	// -spec alone runs exactly the spec's tables.
	opts, err := parseOptions([]string{"-spec", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.run) != 1 || opts.run[0].ID != "tinytable" {
		t.Fatalf("run = %+v, want the spec's table", opts.run)
	}

	// -only resolves across spec tables and built-ins.
	opts, err = parseOptions([]string{"-spec", path, "-only", "tinytable,fig7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.run) != 2 || opts.run[0].ID != "tinytable" || opts.run[1].ID != "fig7" {
		t.Fatalf("run = %+v, want [tinytable fig7]", opts.run)
	}

	// A broken spec file fails parsing, not the run.
	bad := writeSpec(t, "bad.json", `{"version": 1, "bogus": true}`)
	if _, err := parseOptions([]string{"-spec", bad}, io.Discard); err == nil {
		t.Fatal("broken spec accepted")
	}
}

func TestParseOptionsSpecScale(t *testing.T) {
	pinned := writeSpec(t, "pinned.json", `{
	  "version": 1, "name": "pinned",
	  "scale": {"warmup_instr": 1000, "measure_instr": 2000, "samples": 1},
	  "tables": [{"id": "p", "title": "t", "grid": {
	    "workloads": ["Nutch"],
	    "columns": [{"name": "none", "config": {"mechanism": "none"}}],
	    "metric": "ipc"}}]
	}`)
	opts, err := parseOptions([]string{"-spec", pinned}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if opts.specScale == nil || opts.specScale.WarmupInstr != 1000 {
		t.Fatalf("spec scale not pinned: %+v", opts.specScale)
	}
	if _, err := parseOptions([]string{"-spec", pinned, "-quick"}, io.Discard); err == nil {
		t.Fatal("pinned scale with -quick accepted")
	}
}

// TestListIncludesSpecTables: -list must reflect the -spec catalog
// swap, showing spec table ids ahead of the built-ins.
func TestListIncludesSpecTables(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpecBody)
	var out strings.Builder
	if code := run([]string{"-spec", path, "-list"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	listing := out.String()
	if !strings.Contains(listing, "tinytable") || !strings.Contains(listing, "(spec)") {
		t.Fatalf("-list missing the spec table:\n%s", listing)
	}
	if !strings.Contains(listing, "fig7") {
		t.Fatalf("-list missing built-ins:\n%s", listing)
	}
	if strings.Index(listing, "tinytable") > strings.Index(listing, "fig7") {
		t.Fatalf("spec tables should lead the listing:\n%s", listing)
	}
}

// TestListAlignsDescriptions: every description starts in one column,
// however long the longest id (interference64) is.
func TestListAlignsDescriptions(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-list"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 18 {
		t.Fatalf("-list printed %d lines, want 18:\n%s", len(lines), out.String())
	}
	col := -1
	for _, line := range lines {
		id, rest, _ := strings.Cut(line, " ")
		desc := len(line) - len(strings.TrimLeft(rest, " "))
		if col == -1 {
			col = desc
		}
		if desc != col {
			t.Fatalf("description of %q starts at column %d, want %d:\n%s", id, desc, col, out.String())
		}
	}
	if col != len("interference64")+1 {
		t.Fatalf("descriptions start at column %d, want one past the longest id", col)
	}
}

// pinnedSpecBody is a tiny spec that pins its own (small) scale, so a
// local run of it takes well under a second.
const pinnedSpecBody = `{
  "version": 1, "name": "tiny",
  "scale": {"warmup_instr": 40000, "measure_instr": 60000, "samples": 1},
  "tables": [{"id": "t", "title": "tiny ipc", "grid": {
    "workloads": ["Nutch"],
    "columns": [{"name": "none", "config": {"mechanism": "none"}}],
    "metric": "ipc"}}]
}`

// TestRunSpecFile drives the -spec path through real run(): a
// scale-pinned tiny sweep must render its declared table, and a broken
// spec is a parse-time error (exit 2) that names the bad field.
func TestRunSpecFile(t *testing.T) {
	path := writeSpec(t, "tiny.json", pinnedSpecBody)
	var out, errOut strings.Builder
	if code := run([]string{"-spec", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "tiny ipc") || !strings.Contains(out.String(), "Nutch") {
		t.Fatalf("unexpected render:\n%s", out.String())
	}

	bad := writeSpec(t, "bad.json", `{"version":1,"bogus":true}`)
	var errBad strings.Builder
	if code := run([]string{"-spec", bad}, io.Discard, &errBad); code != 2 {
		t.Fatalf("broken spec exit %d, want 2", code)
	}
	if !strings.Contains(errBad.String(), "bogus") {
		t.Fatalf("error does not name the unknown field: %s", errBad.String())
	}
}

// TestRunSubmit drives the -submit path through real run() against a
// stub farm: each spec travels in order with the bearer key, the
// rendered bodies are relayed verbatim, an error envelope surfaces on
// stderr with its stable code and leaves an existing -out file alone,
// and flags that shape a local run are refused.
func TestRunSubmit(t *testing.T) {
	path := writeSpec(t, "tiny.json", pinnedSpecBody)

	var gotAuth, gotPath []string
	farm := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth = append(gotAuth, r.Header.Get("Authorization"))
		gotPath = append(gotPath, r.URL.Path+"?"+r.URL.RawQuery)
		fmt.Fprintf(w, "RENDERED TABLE %d\n", len(gotPath))
	}))
	defer farm.Close()

	var out, errBuf strings.Builder
	if code := run([]string{"-spec", path, "-submit", farm.URL, "-api-key", "key-acme"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if out.String() != "RENDERED TABLE 1\n" {
		t.Fatalf("farm body not relayed verbatim: %q", out.String())
	}
	if len(gotPath) != 1 || gotAuth[0] != "Bearer key-acme" || gotPath[0] != "/v1/sweeps?format=text" {
		t.Fatalf("request wrong: auth %q path %q", gotAuth, gotPath)
	}

	// Two files post in order under -json; the bodies land in -out.
	other := writeSpec(t, "other.json", tinySpecBody)
	report := filepath.Join(t.TempDir(), "report.json")
	gotAuth, gotPath = nil, nil
	if code := run([]string{"-spec", path + "," + other, "-submit", farm.URL, "-json", "-out", report}, io.Discard, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if got, err := os.ReadFile(report); err != nil || string(got) != "RENDERED TABLE 1\nRENDERED TABLE 2\n" {
		t.Fatalf("-out holds %q (%v), want both bodies in order", got, err)
	}
	if len(gotPath) != 2 || gotPath[1] != "/v1/sweeps?format=json" || gotAuth[0] != "" {
		t.Fatalf("requests wrong: auth %q paths %q", gotAuth, gotPath)
	}

	// A non-retryable envelope rejection exits 1, names its code, and
	// leaves an existing report untouched.
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		client.WriteError(w, http.StatusUnauthorized, client.CodeUnauthorized, "unknown API key")
	}))
	defer reject.Close()
	errBuf.Reset()
	if code := run([]string{"-spec", path, "-submit", reject.URL, "-out", report}, io.Discard, &errBuf); code != 1 {
		t.Fatalf("rejected submit exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), client.CodeUnauthorized) {
		t.Fatalf("stderr does not carry the stable code: %s", errBuf.String())
	}
	if got, _ := os.ReadFile(report); string(got) != "RENDERED TABLE 1\nRENDERED TABLE 2\n" {
		t.Fatalf("rejected submit rewrote -out: %q", got)
	}

	// A flag that shapes a local run conflicts with -submit, and the
	// submit flags need each other and -spec.
	for _, extra := range [][]string{
		{"-only", "t"}, {"-list"}, {"-quick"}, {"-parallel", "2"}, {"-store", t.TempDir()},
		{"-store-max-bytes", "100"}, {"-cpuprofile", "cpu.out"}, {"-memprofile", "mem.out"},
	} {
		args := append([]string{"-spec", path, "-submit", farm.URL}, extra...)
		_, err := parseOptions(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Fatalf("args %v: error %v, want a conflict naming %s", args, err, extra[0])
		}
	}
	for _, args := range [][]string{
		{"-submit", farm.URL},
		{"-spec", path, "-api-key", "k"},
		{"-api-key", "k"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}
