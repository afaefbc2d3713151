// Command perfbench is the repository's performance benchmark: one
// command that generates a workload's inputs from a seed, drives them
// through the simulator's public API (sim.Run, sim.RunStream,
// sim.RunScenario, and the client → server → dispatch → harness → store
// stack over HTTP), checks that every output is correct, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as
// one JSON object on the last line of standard output.
//
//	perfbench --workload solo|cmp|farm --seed N --seconds S --trace 0|1
//
// A failed correctness check exits non-zero without printing a result.
// README.md in this directory gives each workload's rationale and the
// metric ↔ layer table.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start for the run's own set-up time:
// package variables initialize before main runs.
var procStart = time.Now()

// setupChildEnv, set in a child's environment, makes the process do one
// set-up and exit. setup_s is the median over such children, each timed
// by its parent from exec to exit, so every sample includes process
// start and the program registry's first build.
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

// defaultSeed is the seed whose simulated statistics are pinned by
// digests.json.
const defaultSeed = 1

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	outDir   string
	// specDir holds the sweep documents the farm's traffic is drawn
	// from, relative to the repository root the benchmark runs in.
	specDir string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{specDir: "specs"}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run emitting the per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "out"), "directory for spans, profiles and the store")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive (got %v)", o.seconds)
	}
	switch traceFlag {
	case 0:
	case 1:
		o.trace = true
	default:
		return o, fmt.Errorf("--trace must be 0 or 1 (got %d)", traceFlag)
	}
	return o, nil
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if os.Getenv(setupChildEnv) != "" {
		err = setupOnce(opts)
	} else {
		err = run(opts, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and writes the run record and the
// result line. Any correctness failure returns an error before a
// result is written.
func run(opts options, stdout, stderr io.Writer) error {
	sz := fullSize
	if opts.tiny {
		sz = tinySize
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	prefetchExcess.Store(0)
	b := workloads[opts.workload](opts, sz)
	defer b.close()
	var st setupTimes
	if err := b.setup(&st); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	ownSetup := time.Since(procStart).Seconds()
	setups, err := timeSetups(opts, sz.setupChildren, stderr)
	if err != nil {
		return err
	}
	if len(setups) == 0 {
		setups = []float64{ownSetup}
	}
	runtime.GC()

	d := time.Duration(opts.seconds * float64(time.Second))
	rec := runRecord{
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds,
		Traced: opts.trace, Tiny: opts.tiny, Host: hostFacts(),
		SetupS: ownSetup, SetupChildrenS: setups,
	}
	var out *outcome
	var layers map[string]float64
	if !opts.trace {
		o, err := b.run(d, nil)
		if err != nil {
			return err
		}
		out = o
	} else {
		// Untraced then traced, half the time each: the difference of
		// the two is the tracing overhead.
		plain, err := b.run(d/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		rt0 := readRuntime()
		traced, err := b.run(d/2, tr)
		rt1 := readRuntime()
		pprof.StopCPUProfile()
		profData := prof.Bytes()
		if err != nil {
			return err
		}
		if err := writeArtifacts(opts, tr, profData); err != nil {
			return err
		}
		split, err := foldProfile(profData)
		if err != nil {
			return fmt.Errorf("layer split: %w", err)
		}
		layers = layerMetrics(traced, tr, split, st)
		layers["tracing.overhead_pct"] = 100 * (1 - traced.p1.rate()/plain.p1.rate())
		layers["runtime.allocs_per_kinstr"] = (rt1.mallocs - rt0.mallocs) / (traced.simInstr / 1000)
		if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
			layers["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
		}
		rec.Top3 = topPackages(split, 3)
		rec.TracingOverheadPct = layers["tracing.overhead_pct"]
		out = traced
		out.attempted += plain.attempted
		out.failed += plain.failed
		fmt.Fprintf(stderr, "perfbench: layer split top 3: %s\n", strings.Join(rec.Top3, ", "))
	}

	if opts.seed == defaultSeed && !opts.tiny {
		if err := checkDigest(opts.workload, out.digest); err != nil {
			return err
		}
		rec.DigestChecked = true
	}
	rec.Digest = out.digest
	rec.Attempted, rec.Failed, rec.Phases = out.attempted, out.failed, out.phases()
	rec.Extra = out.record
	rec.Extra["prefetch_excess_max"] = prefetchExcess.Load()

	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if opts.trace {
		for _, m := range perLayerMetrics() {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: m.value(out, setups), Unit: m.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", recLine, resLine)
	return nil
}

// timeSetups runs n set-up-only children of this executable, one after
// another, and returns each one's wall time from start to exit.
func timeSetups(opts options, n int, stderr io.Writer) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", opts.workload, "--seed", strconv.FormatUint(opts.seed, 10), "--out", opts.outDir}
	var times []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), setupChildEnv+"=1")
		cmd.Stdout, cmd.Stderr = stderr, stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// setupOnce is a set-up child's whole life: one full-size set-up.
func setupOnce(opts options) error {
	b := workloads[opts.workload](opts, fullSize)
	defer b.close()
	return b.setup(&setupTimes{})
}

// writeArtifacts writes the traced run's spans and CPU profile, once,
// at exit.
func writeArtifacts(opts options, tr *tracer, prof []byte) error {
	base := fmt.Sprintf("%s-seed%d", opts.workload, opts.seed)
	if err := tr.write(filepath.Join(opts.outDir, "spans-"+base+".jsonl")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opts.outDir, "cpu-"+base+".pprof"), prof, 0o644)
}
