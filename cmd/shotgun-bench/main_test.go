package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// specFile writes a minimal valid spec and returns its path.
func specFile(t *testing.T, name, body string) string {
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
	path := specFile(t, "tiny.json", tinySpecBody)

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
	bad := specFile(t, "bad.json", `{"version": 1, "bogus": true}`)
	if _, err := parseOptions([]string{"-spec", bad}, io.Discard); err == nil {
		t.Fatal("broken spec accepted")
	}
}

func TestParseOptionsSpecScale(t *testing.T) {
	pinned := specFile(t, "pinned.json", `{
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
	path := specFile(t, "tiny.json", tinySpecBody)
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
