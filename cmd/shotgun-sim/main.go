// Command shotgun-sim runs one simulation — a (workload, mechanism) pair
// at a chosen BTB budget, optionally with co-runner cores sharing the
// LLC and NoC — and prints its statistics.
//
// Usage:
//
//	shotgun-sim -workload Oracle -mechanism shotgun -btb 2048 \
//	    -warmup 2000000 -measure 3000000 -samples 3
//	shotgun-sim -workload Oracle -region entire -bits 32   # a footprint variant
//	shotgun-sim -workload Oracle -bpu clz                  # CLZ-TAGE direction predictor
//	shotgun-sim -workload Oracle -contexts 4               # 4 SMT contexts, one front-end
//	shotgun-sim -workload DB2 -json -out result.json
//	shotgun-sim -workload Oracle -cores 4                  # 3 identical co-runners
//	shotgun-sim -workload Oracle -mix fdip,none            # 2 co-runners, mixed mechanisms
//	shotgun-sim -workload Oracle -cores 8 -llc 4194304     # shared-LLC override
//	shotgun-sim -workload Oracle -trace oracle.trace       # replay a recorded trace
//	shotgun-sim -workload Oracle -sample-period 16384 -sample-warmup 1024 \
//	    -sample-unit 1024 -sample-funcwarm 8192            # periodic sampling (95% CI)
//	shotgun-sim -workload Oracle -sample-period 16384 -sample-unit 1024 \
//	    -sample-units 8 -sample-ci 0.03                    # ... adaptive to a ±3% CI
//	shotgun-sim -cpuprofile cpu.out -memprofile mem.out    # profile the run
//
// A sweep spec (docs/SPEC.md) runs through shotgun-bench -spec, locally
// or on a farm.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/trace"
	"shotgun/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errPrinted marks errors the flag package already reported to stderr.
var errPrinted = errors.New("flag parse error")

// options is the validated flag set.
type options struct {
	scenario   sim.Scenario
	tracePath  string
	jsonOut    bool
	outPath    string
	cpuprofile string
	memprofile string
}

// parseOptions parses flags into a validated sim.Scenario — every bad
// combination (unknown workload, mechanism, region mode, bit width,
// non-positive samples, oversubscribed mesh, trace with co-runners)
// fails here with a clear error.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("shotgun-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "Oracle", "workload name: "+strings.Join(workload.Names(), ", "))
		mech    = fs.String("mechanism", "shotgun", "mechanism: none, fdip, rdip, delta, boomerang, confluence, shotgun, ideal")
		btb     = fs.Int("btb", 2048, "conventional BTB entry budget")
		warmup  = fs.Uint64("warmup", 2_000_000, "warmup instructions")
		measure = fs.Uint64("measure", 3_000_000, "measured instructions")
		samples = fs.Int("samples", 3, "measurement windows")
		region  = fs.String("region", "vector", "shotgun region mode: vector, none, entire, 5blocks")
		bpu     = fs.String("bpu", "tage", "direction predictor: tage, clz")
		nctx    = fs.Int("contexts", 1, "hardware contexts sharing each core's front-end (1..8)")
		bits    = fs.Int("bits", 8, "footprint bit-vector width (8 or 32)")
		cores   = fs.Int("cores", 0, "total cores in the scenario (0: derived from -mix, else 1)")
		mix     = fs.String("mix", "", "comma-separated co-runner mechanisms (cycled over cores 2..N; default: same as core 0)")
		llc     = fs.Int("llc", 0, "total shared LLC bytes (0: 1MB per core, capped at 8MB)")

		samplePeriod   = fs.Uint64("sample-period", 0, "periodic sampling: period P in trace blocks (enables sampled mode)")
		sampleWarmup   = fs.Uint64("sample-warmup", 0, "periodic sampling: detailed warm-up blocks before each measured unit")
		sampleUnit     = fs.Uint64("sample-unit", 0, "periodic sampling: measured unit length in blocks (required with -sample-period)")
		sampleFuncWarm = fs.Uint64("sample-funcwarm", 0, "periodic sampling: functional-warming window in blocks (0: warm the whole gap)")
		sampleUnits    = fs.Int("sample-units", 0, "periodic sampling: measured unit count (0: the default)")
		sampleCI       = fs.Float64("sample-ci", 0, "periodic sampling: target relative 95% CI half-width for adaptive escalation (e.g. 0.03)")
	)
	opts := options{}
	fs.StringVar(&opts.tracePath, "trace", "", "drive core 0 from this recorded trace instead of the workload walker")
	fs.BoolVar(&opts.jsonOut, "json", false, "emit the result as JSON instead of text")
	fs.StringVar(&opts.outPath, "out", "", "write the output to this file instead of stdout")
	fs.StringVar(&opts.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&opts.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return options{}, err
		}
		return options{}, errPrinted
	}
	// Zero-valued config fields mean "use the default" after
	// normalization, so an explicit 0 would silently run at full
	// defaults — reject it here where explicitness is knowable.
	if *samples <= 0 {
		return options{}, fmt.Errorf("-samples must be positive (got %d)", *samples)
	}

	primary := sim.Config{
		Workload:     *wl,
		Mechanism:    sim.Mechanism(*mech),
		BTBEntries:   *btb,
		WarmupInstr:  *warmup,
		MeasureInstr: *measure,
		Samples:      *samples,
	}
	switch *region {
	case "vector":
		primary.RegionMode = prefetch.RegionVector
	case "none":
		primary.RegionMode = prefetch.RegionNone
	case "entire":
		primary.RegionMode = prefetch.RegionEntire
	case "5blocks":
		primary.RegionMode = prefetch.RegionFiveBlocks
	default:
		return options{}, fmt.Errorf("unknown region mode %q (vector, none, entire, 5blocks)", *region)
	}
	switch *bits {
	case 8:
		primary.Layout = footprint.Layout8
	case 32:
		primary.Layout = footprint.Layout32
	default:
		return options{}, fmt.Errorf("-bits must be 8 or 32 (got %d)", *bits)
	}
	bpuAxis, err := sim.ParseBPU(*bpu)
	if err != nil {
		return options{}, err
	}
	primary.BPU = bpuAxis
	if *nctx < 1 || *nctx > sim.MaxContexts {
		return options{}, fmt.Errorf("-contexts must be in [1, %d] (got %d)", sim.MaxContexts, *nctx)
	}
	primary.Contexts = *nctx

	// The -sample-* family switches the run to periodic sampling; the
	// schedule needs at least a period and a unit length, and the rest
	// of the knobs are meaningless without them.
	if *samplePeriod != 0 || *sampleWarmup != 0 || *sampleUnit != 0 ||
		*sampleFuncWarm != 0 || *sampleUnits != 0 || *sampleCI != 0 {
		if *samplePeriod == 0 || *sampleUnit == 0 {
			return options{}, fmt.Errorf("sampled mode needs both -sample-period and -sample-unit")
		}
		primary.Sampling = &sim.Sampling{
			PeriodBlocks:   *samplePeriod,
			WarmupBlocks:   *sampleWarmup,
			UnitBlocks:     *sampleUnit,
			FuncWarmBlocks: *sampleFuncWarm,
			Units:          *sampleUnits,
			TargetCI:       *sampleCI,
		}
	}

	// The co-runner population: -cores sets the total core count; -mix
	// the co-runners' mechanisms (cycled). -mix alone implies one core
	// per listed mechanism plus the primary.
	var mixMechs []sim.Mechanism
	if *mix != "" {
		for _, name := range strings.Split(*mix, ",") {
			mixMechs = append(mixMechs, sim.Mechanism(strings.TrimSpace(name)))
		}
	}
	n := *cores
	switch {
	case n == 0 && len(mixMechs) > 0:
		n = 1 + len(mixMechs)
	case n == 0:
		n = 1
	case n < 1:
		return options{}, fmt.Errorf("-cores must be positive (got %d)", n)
	}
	if n == 1 && len(mixMechs) > 0 {
		return options{}, fmt.Errorf("-mix needs co-runner cores, but -cores 1 leaves none")
	}
	if primary.Sampling != nil && n > 1 {
		// Sampling is single-core stream mode for now; a shared-uncore
		// scenario has no warm-path model for the co-runners' traffic.
		return options{}, fmt.Errorf("-sample-period runs single-core periodic sampling; it conflicts with -cores %d (drop -cores/-mix or the -sample-* flags)", n)
	}
	opts.scenario = sim.Scenario{Cores: []sim.Config{primary}, LLCSizeBytes: *llc}
	for i := 1; i < n; i++ {
		co := primary
		if len(mixMechs) > 0 {
			co.Mechanism = mixMechs[(i-1)%len(mixMechs)]
			if co.Mechanism != sim.Shotgun {
				// Region/layout knobs are Shotgun-specific; mixed-in
				// mechanisms run at their own defaults.
				co.RegionMode = prefetch.RegionVector
				co.Layout = footprint.Layout8
			}
		}
		opts.scenario.Cores = append(opts.scenario.Cores, co)
	}
	if opts.tracePath != "" && len(opts.scenario.Cores) > 1 {
		return options{}, fmt.Errorf("-trace drives a single core; drop -cores/-mix")
	}
	if opts.tracePath != "" && *llc != 0 {
		return options{}, fmt.Errorf("-llc shapes the scenario's shared LLC; a -trace replay runs the single-core default")
	}
	if opts.tracePath != "" && *nctx > 1 {
		return options{}, fmt.Errorf("-trace replays a single-context stream; drop -contexts")
	}
	if err := opts.scenario.Validate(); err != nil {
		return options{}, err
	}
	return opts, nil
}

// jsonResult is the -json document: the normalized scenario alongside
// the per-core outcomes, mirroring internal/store's record body. For a
// -trace replay the block stream came from the named trace, not the
// scenario's walker, so the scenario is NOT the result's content
// identity — the trace field marks that, and consumers must not key
// trace-driven results by the scenario.
type jsonResult struct {
	Scenario sim.Scenario       `json:"scenario"`
	Trace    string             `json:"trace,omitempty"`
	Result   sim.ScenarioResult `json:"result"`
}

// profiles carries the -cpuprofile/-memprofile state. Both files are
// created (and the CPU profile started) before any simulation work, so
// a bad path fails fast instead of discarding a finished run.
type profiles struct {
	memf *os.File
	cpu  bool
}

// startProfiles resolves the profiling flags (no-op when unset).
func startProfiles(opts options, stderr io.Writer) (*profiles, int) {
	p := &profiles{}
	if opts.memprofile != "" {
		f, err := os.Create(opts.memprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 1
		}
		p.memf = f
	}
	if opts.cpuprofile != "" {
		f, err := os.Create(opts.cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 1
		}
		p.cpu = true
	}
	return p, 0
}

// stop ends the CPU profile and writes the heap profile.
func (p *profiles) stop(stderr io.Writer) int {
	if p.cpu {
		pprof.StopCPUProfile()
	}
	if p.memf != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(p.memf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		p.memf.Close()
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseOptions(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help is a successful exit, like flag.ExitOnError
		}
		if !errors.Is(err, errPrinted) {
			fmt.Fprintln(stderr, err)
		}
		return 2
	}
	prof, code := startProfiles(opts, stderr)
	if code != 0 {
		return code
	}
	code = simulate(opts, stdout, stderr)
	if pcode := prof.stop(stderr); code == 0 {
		code = pcode
	}
	return code
}

// simulate runs the scenario and renders the result (run handles flag
// parsing and profiling around it).
func simulate(opts options, stdout, stderr io.Writer) int {
	var err error
	var res sim.ScenarioResult
	if opts.tracePath != "" {
		f, err := os.Open(opts.tracePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		stream, err := trace.NewStream(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		r, err := sim.RunStream(opts.scenario.Cores[0], stream)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		res = sim.ScenarioResult{Cores: []sim.Result{r}}
	} else {
		res, err = sim.RunScenario(opts.scenario)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// -out is opened only after the simulation has succeeded, so a
	// failed run never truncates an existing report.
	out := stdout
	if opts.outPath != "" {
		f, err := os.Create(opts.outPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		out = f
	}
	if opts.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		doc := jsonResult{Scenario: opts.scenario.Normalized(), Trace: opts.tracePath, Result: res}
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	for i, r := range res.Cores {
		if len(res.Cores) > 1 {
			fmt.Fprintf(out, "--- core %d ---\n", i)
		}
		printResult(out, r)
	}
	return 0
}

func printResult(out io.Writer, res sim.Result) {
	cs := res.Core
	fmt.Fprintf(out, "workload            %s\n", res.Workload)
	fmt.Fprintf(out, "mechanism           %s\n", res.Mechanism)
	fmt.Fprintf(out, "instructions        %d\n", cs.Instructions)
	fmt.Fprintf(out, "cycles              %d\n", cs.Cycles)
	fmt.Fprintf(out, "IPC                 %.4f\n", res.IPC())
	fmt.Fprintf(out, "front-end stalls    %d (%.1f%% of cycles)\n", cs.FrontEndStallCycles,
		100*float64(cs.FrontEndStallCycles)/float64(cs.Cycles))
	fmt.Fprintf(out, "back-end stalls     %d (%.1f%% of cycles)\n", cs.BackEndStallCycles,
		100*float64(cs.BackEndStallCycles)/float64(cs.Cycles))
	fmt.Fprintf(out, "BTB MPKI            %.2f\n", res.BTBMPKI())
	fmt.Fprintf(out, "L1-I MPKI           %.2f\n", res.L1IMPKI())
	fmt.Fprintf(out, "decode redirects    %d (%.2f MPKI)\n", cs.DecodeRedirects, cs.MPKI(cs.DecodeRedirects))
	fmt.Fprintf(out, "exec redirects      %d (%.2f MPKI)\n", cs.ExecRedirects, cs.MPKI(cs.ExecRedirects))
	fmt.Fprintf(out, "prefetches issued   %d\n", res.Hier.PrefetchesIssued)
	fmt.Fprintf(out, "prefetch accuracy   %.3f\n", res.PrefetchAccuracy)
	fmt.Fprintf(out, "L1-D fill cycles    %.1f\n", res.AvgDataFillCycles())
	if s := res.Sampled; s != nil {
		fmt.Fprintf(out, "sampled IPC         %s\n", s.IPC)
		fmt.Fprintf(out, "sampled L1-I MPKI   %s\n", s.L1IMPKI)
		fmt.Fprintf(out, "sampled BTB MPKI    %s\n", s.BTBMPKI)
		fmt.Fprintf(out, "sampled coverage    %.4f (%d of %d instructions in detail)\n",
			s.Coverage(), s.DetailInstr, s.TotalInstr())
	}
}
