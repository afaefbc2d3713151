package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
)

func TestParseOptionsRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown workload", []string{"-workload", "NoSuch"}, "NoSuch"},
		{"unknown mechanism", []string{"-mechanism", "warp"}, "warp"},
		{"unknown region", []string{"-region", "spiral"}, "spiral"},
		{"bad bits", []string{"-bits", "16"}, "8 or 32"},
		{"non-positive samples", []string{"-samples", "0"}, "samples"},
		{"negative btb", []string{"-btb", "-5"}, "BTB"},
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

func TestParseOptionsBuildsConfig(t *testing.T) {
	opts, err := parseOptions([]string{
		"-workload", "DB2", "-mechanism", "shotgun", "-btb", "4096",
		"-region", "entire", "-bits", "32", "-samples", "2", "-json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.scenario.Cores) != 1 {
		t.Fatalf("cores = %d, want 1", len(opts.scenario.Cores))
	}
	cfg := opts.scenario.Cores[0]
	if cfg.Workload != "DB2" || cfg.Mechanism != sim.Shotgun || cfg.BTBEntries != 4096 {
		t.Fatalf("config wrong: %+v", cfg)
	}
	if cfg.RegionMode != prefetch.RegionEntire || cfg.Layout != footprint.Layout32 {
		t.Fatalf("region/layout wrong: %+v", cfg)
	}
	if !opts.jsonOut {
		t.Fatal("-json lost")
	}
}

func TestParseOptionsBuildsScenario(t *testing.T) {
	// -mix alone implies one co-runner per mechanism.
	opts, err := parseOptions([]string{"-workload", "Oracle", "-mix", "fdip,none"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sc := opts.scenario
	if len(sc.Cores) != 3 {
		t.Fatalf("cores = %d, want 3", len(sc.Cores))
	}
	if sc.Cores[0].Mechanism != sim.Shotgun || sc.Cores[1].Mechanism != sim.FDIP || sc.Cores[2].Mechanism != sim.None {
		t.Fatalf("mechanisms wrong: %+v", sc.Cores)
	}

	// -cores cycles the mix.
	opts, err = parseOptions([]string{"-cores", "4", "-mix", "fdip"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.scenario.Cores) != 4 {
		t.Fatalf("cores = %d, want 4", len(opts.scenario.Cores))
	}
	for _, co := range opts.scenario.Cores[1:] {
		if co.Mechanism != sim.FDIP {
			t.Fatalf("co-runner mechanism %s, want fdip", co.Mechanism)
		}
	}

	// -cores without -mix clones the primary.
	opts, err = parseOptions([]string{"-cores", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.scenario.Cores) != 2 || opts.scenario.Cores[1].Mechanism != sim.Shotgun {
		t.Fatalf("clone scenario wrong: %+v", opts.scenario.Cores)
	}

	for _, bad := range [][]string{
		{"-cores", "-3"},
		{"-cores", "257"},               // above the 16x16 mesh ceiling
		{"-cores", "1", "-mix", "fdip"}, // mix with no co-runner cores is a silent no-op
		{"-mix", "warp"},
		{"-trace", "x.trace", "-cores", "2"},
		{"-trace", "x.trace", "-llc", "4194304"},
		{"-llc", "1024"},
	} {
		if _, err := parseOptions(bad, io.Discard); err == nil {
			t.Fatalf("args %v accepted", bad)
		}
	}
}

func TestParseOptionsSampling(t *testing.T) {
	opts, err := parseOptions([]string{
		"-workload", "Oracle",
		"-sample-period", "16384", "-sample-warmup", "1024", "-sample-unit", "1024",
		"-sample-funcwarm", "8192", "-sample-units", "8", "-sample-ci", "0.03",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s := opts.scenario.Cores[0].Sampling
	if s == nil {
		t.Fatal("sampling flags built no sampling block")
	}
	if s.PeriodBlocks != 16384 || s.WarmupBlocks != 1024 || s.UnitBlocks != 1024 ||
		s.FuncWarmBlocks != 8192 || s.Units != 8 || s.TargetCI != 0.03 {
		t.Fatalf("sampling block wrong: %+v", *s)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unit without period", []string{"-sample-unit", "1024"}, "-sample-period"},
		{"period without unit", []string{"-sample-period", "16384"}, "-sample-unit"},
		{"stray knob alone", []string{"-sample-ci", "0.03"}, "-sample-period"},
		{"conflicts with cores", []string{"-sample-period", "16384", "-sample-unit", "1024", "-cores", "4"}, "-cores"},
		{"conflicts with mix", []string{"-sample-period", "16384", "-sample-unit", "1024", "-mix", "fdip"}, "-sample-period"},
		{"unit above period", []string{"-sample-period", "128", "-sample-unit", "1024"}, "period"},
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

// TestRunSampledText drives a sampled run end to end through the CLI and
// checks the confidence-interval lines render.
func TestRunSampledText(t *testing.T) {
	var out, errBuf strings.Builder
	code := run([]string{
		"-workload", "Nutch", "-mechanism", "none",
		"-sample-period", "8192", "-sample-warmup", "256", "-sample-unit", "256",
		"-sample-units", "4",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	text := out.String()
	for _, want := range []string{"sampled IPC", "95% CI, n=4", "sampled coverage"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunJSON exercises the full CLI path at a tiny scale and checks the
// -json document parses back into config + result.
func TestRunJSON(t *testing.T) {
	var out, errBuf strings.Builder
	code := run([]string{
		"-workload", "Nutch", "-mechanism", "none",
		"-warmup", "60000", "-measure", "80000", "-samples", "1", "-json",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	var doc jsonResult
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(doc.Scenario.Cores) != 1 || doc.Scenario.Cores[0].Workload != "Nutch" {
		t.Fatalf("document scenario wrong: %+v", doc)
	}
	if len(doc.Result.Cores) != 1 || doc.Result.Cores[0].Core.Instructions == 0 {
		t.Fatalf("document result wrong: %+v", doc)
	}
}

// TestRunScenarioText runs a 2-core scenario end to end through the CLI
// and checks both cores render.
func TestRunScenarioText(t *testing.T) {
	var out, errBuf strings.Builder
	code := run([]string{
		"-workload", "Nutch", "-mechanism", "shotgun", "-mix", "none",
		"-warmup", "60000", "-measure", "80000", "-samples", "1",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	text := out.String()
	for _, want := range []string{"--- core 0 ---", "--- core 1 ---", "mechanism           shotgun", "mechanism           none"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunWritesProfiles runs a small scenario with -cpuprofile and
// -memprofile and checks both files come out non-empty, and that a bad
// profile path fails before any simulation work.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out, errBuf strings.Builder
	code := run([]string{
		"-workload", "Nutch", "-mechanism", "none",
		"-warmup", "60000", "-measure", "80000", "-samples", "1",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}

	errBuf.Reset()
	code = run([]string{
		"-workload", "Nutch", "-cpuprofile", filepath.Join(dir, "no/such/dir/cpu.out"),
	}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("bad -cpuprofile path: exit %d, want 1", code)
	}
	if errBuf.Len() == 0 {
		t.Fatal("bad -cpuprofile path reported no error")
	}
}
