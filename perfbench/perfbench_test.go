package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"shotgun/internal/sim"
	"shotgun/internal/uncore"
)

// TestMain lets the test binary stand in for the benchmark executable
// when it is started as a set-up child.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) != "" {
		opts, err := parseOptions(os.Args[1:], os.Stderr)
		if err == nil {
			err = setupOnce(opts)
		}
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSpecDir is the repository's sweep documents, seen from here.
var testSpecDir = filepath.Join("..", "specs")

func testSpecs(t *testing.T) farmSpecs {
	t.Helper()
	fs, err := loadSpecs(testSpecDir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// inputsOf renders every generated input of a workload for one seed.
func inputsOf(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	var v any
	switch workload {
	case "solo":
		v = genSolo(seed, fullSize)
	case "cmp":
		v = genCMP(seed, fullSize)
	case "farm":
		v = genFarm(seed, fullSize, testSpecs(t))
	default:
		t.Fatalf("no generator for %q", workload)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := inputsOf(t, w, 7), inputsOf(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
		if bytes.Equal(a, inputsOf(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

func TestFarmPoolHasNoRepeatedKeys(t *testing.T) {
	fs := testSpecs(t)
	seen := map[string]bool{}
	for _, sc := range fs.Cells {
		seen[string(sc.Normalized().CanonicalBytes())] = true
	}
	sweeps := map[string]bool{}
	for i, r := range genFarm(3, fullSize, fs) {
		if r.Sweep != "" {
			if sweeps[r.Sweep] {
				t.Fatalf("request %d repeats sweep %s", i, r.Sweep)
			}
			sweeps[r.Sweep] = true
			continue
		}
		if err := r.Scenario.Validate(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		id := string(r.Scenario.Normalized().CanonicalBytes())
		if seen[id] {
			t.Fatalf("request %d repeats an earlier content identity", i)
		}
		seen[id] = true
	}
	if len(sweeps) != len(fs.Sweeps) {
		t.Errorf("pool posts %d of the %d sweepable specs", len(sweeps), len(fs.Sweeps))
	}
}

func TestFarmSweepsAreSpecs(t *testing.T) {
	fs := testSpecs(t)
	if len(fs.Sweeps) < 2 {
		t.Fatalf("only %d sweepable specs", len(fs.Sweeps))
	}
	for _, d := range fs.Sweeps {
		raw, err := os.ReadFile(filepath.Join(testSpecDir, d.Name))
		if err != nil || !bytes.Equal(raw, d.Doc) {
			t.Errorf("sweep %s is not the spec document on disk (%v)", d.Name, err)
		}
		if len(d.Scenarios) == 0 {
			t.Errorf("sweep %s simulates nothing", d.Name)
		}
	}
}

func TestPrefetchAllowance(t *testing.T) {
	res := sim.Result{Workload: "Nutch", Mechanism: sim.Shotgun}
	res.Core.Instructions, res.Core.Cycles = 1000, 1000
	res.Hier.DemandFetches, res.Hier.DemandPrefBufHits = 500, 400
	res.Hier.DemandL1IHits = 100
	res.Hier.PrefetchesIssued = 400 - uint64(uncore.DefaultConfig().PrefetchBufferEntries)
	if err := checkResult(res, 1000); err != nil {
		t.Fatalf("a result at the allowance failed: %v", err)
	}
	res.Hier.PrefetchesIssued--
	if err := checkResult(res, 1000); err == nil {
		t.Fatal("a result one useful prefetch over the allowance passed")
	}
}

func TestSetupChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("a set-up child builds every program")
	}
	times, err := timeSetups(options{workload: "cmp", seed: 2, outDir: t.TempDir()}, 1, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 || times[0] <= 0 {
		t.Fatalf("set-up child times %v", times)
	}
}

// declared reads BENCHMARK.json's metric declarations.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesDeclared(t *testing.T) {
	e2e, layer := declared(t)
	check := func(kind, name, unit string, decl map[string]string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s metric %q is not a valid name", kind, name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s metric %q has invalid unit %q", kind, name, unit)
		}
		if got, ok := decl[name]; !ok || got != unit {
			t.Errorf("%s metric %q (%s) is not declared in BENCHMARK.json as such (have %q)", kind, name, unit, got)
		}
	}
	for _, m := range endToEndMetrics {
		check("end-to-end", m.name, m.unit, e2e)
	}
	for _, m := range perLayerMetrics() {
		check("per-layer", m.name, m.unit, layer)
	}
	if len(endToEndMetrics) != len(e2e) || len(perLayerMetrics()) != len(layer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the benchmark emits %d+%d",
			len(e2e), len(layer), len(endToEndMetrics), len(perLayerMetrics()))
	}
	for _, w := range workloadNames() {
		if !nameRE.MatchString(w) {
			t.Errorf("workload %q is not a valid name", w)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"shotgun/internal/core.(*Core).tick":        "core",
		"shotgun/internal/uncore.(*Hierarchy).Poll": "uncore",
		"shotgun/internal/cmdtest.Usage":            "other",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).Get":          "runtime",
		"encoding/json.Marshal":                     "other",
		"":                                          "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerSplitSumsTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	cfg := sim.Config{Workload: "Nutch", Mechanism: sim.Shotgun, WarmupInstr: 20_000, MeasureInstr: 20_000, Samples: 1}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		sim.MustRun(cfg)
	}
	pprof.StopCPUProfile()
	split, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range layerPackages {
		sum += split[p]
	}
	if math.Abs(sum-100) > 1 {
		t.Fatalf("layer shares sum to %.3f, want 100 ± 1: %v", sum, split)
	}
	if split["core"] == 0 {
		t.Errorf("a simulation profile attributes nothing to core: %v", split)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage folded without error")
	}
}

func TestTailLevel(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 20: 0.5, 100: 0.9, 200: 0.95, 1000: 0.99} {
		if got := tailLevel(n); got != want {
			t.Errorf("tailLevel(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestSmokeRuns runs every workload at tiny size, untraced and traced,
// and checks the result line against the contract.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	e2e, layer := declared(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			var out, errOut bytes.Buffer
			opts := options{workload: w, seed: 5, seconds: 1, trace: traced, tiny: true, outDir: t.TempDir(), specDir: testSpecDir}
			if err := run(opts, &out, &errOut); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w, err)
			}
			want := e2e
			if traced {
				want = layer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: result %+v", w, traced, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: undeclared metric %s (%s)", w, traced, name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

func TestParseOptions(t *testing.T) {
	var stderr bytes.Buffer
	o, err := parseOptions([]string{"--workload", "cmp", "--seed", "9", "--seconds", "3", "--trace", "1"}, &stderr)
	if err != nil || o.workload != "cmp" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Fatalf("parseOptions = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solo", "--trace", "2"},
		{"--workload", "solo", "--seconds", "0"},
		{"--workload", "solo", "extra"},
	} {
		if _, err := parseOptions(bad, &stderr); err == nil {
			t.Errorf("parseOptions(%q) accepted", bad)
		}
	}
}
