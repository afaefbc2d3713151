// Command shotgun-bench regenerates every table and figure of the
// paper's evaluation — the spec catalog compiled from specs/ — and
// prints them in order. A custom sweep (a different interference
// co-runner ladder, say) is a spec file run with -spec, here or, with
// -submit, on a farm.
//
// Simulations are distributed over a worker pool (one worker per CPU by
// default) and memoized, so configurations shared between experiments run
// once; the full config set of the selected experiments is prefetched up
// front to keep every core busy across experiment boundaries.
//
// Usage:
//
//	shotgun-bench                 # run everything at full scale
//	shotgun-bench -quick          # short smoke-scale run
//	shotgun-bench -list           # list experiment ids
//	shotgun-bench -only fig7,fig9 # a subset
//	shotgun-bench -parallel 1     # serial (seed-equivalent) execution
//	shotgun-bench -json -out report.json   # machine-readable report
//	shotgun-bench -store ./shotgun-store   # persist/reuse results on disk
//	shotgun-bench -store ./s -store-max-bytes 1000000000  # prune to ~1GB
//	shotgun-bench -spec my-sweep.json      # run a declarative sweep (docs/SPEC.md)
//	shotgun-bench -spec my-sweep.json -submit http://coord:8080  # ... on a farm (/v1/sweeps)
//	shotgun-bench -spec my-sweep.json -submit http://coord:8080 -api-key key-acme  # authenticated farm
//	shotgun-bench -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/harness"
	"shotgun/internal/report"
	"shotgun/internal/spec"
	"shotgun/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errPrinted marks errors the flag package already reported to stderr.
var errPrinted = errors.New("flag parse error")

// options is the validated flag set.
type options struct {
	quick         bool
	list          bool
	parallel      int
	cpuprofile    string
	memprofile    string
	jsonOut       bool
	outPath       string
	storeDir      string
	storeMaxBytes int64
	// submitURL, when set, posts each -spec file to that farm's
	// /v1/sweeps instead of running it here; apiKey authenticates it.
	submitURL string
	apiKey    string
	// specFiles are the -spec files in flag order, as read and compiled.
	specFiles []specFile
	// specScale is a scale pinned by a -spec file (nil: -quick/full).
	specScale *harness.Scale
	// specExps are the -spec files' tables (nil without -spec); -list
	// shows them ahead of the built-in catalog.
	specExps []harness.Experiment
	// selected experiments, in catalog order (empty only with list).
	run []harness.Experiment
}

// specFile is one -spec file's path and the bytes that compiled.
type specFile struct {
	path string
	data []byte
}

// parseStringList splits and trims a comma-separated list.
func parseStringList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

// parseOptions parses and validates flags. Everything that can fail by
// construction — unknown experiment ids, a non-positive worker count —
// fails here, before any (potentially minutes-long) simulation work.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("shotgun-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{}
	var only string
	fs.BoolVar(&opts.quick, "quick", false, "run at smoke-test scale")
	fs.StringVar(&only, "only", "", "comma-separated experiment ids (default: all)")
	fs.BoolVar(&opts.list, "list", false, "list experiment ids and exit")
	fs.IntVar(&opts.parallel, "parallel", runtime.GOMAXPROCS(0), "simulation worker count (1 = serial)")
	fs.StringVar(&opts.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&opts.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.BoolVar(&opts.jsonOut, "json", false, "emit a machine-readable JSON report instead of text tables")
	fs.StringVar(&opts.outPath, "out", "", "write the report to this file instead of stdout")
	fs.StringVar(&opts.storeDir, "store", "", "persistent result store directory (reused across runs)")
	fs.Int64Var(&opts.storeMaxBytes, "store-max-bytes", 0,
		"prune the store's oldest records down to this many bytes on open (0: keep everything)")
	specList := fs.String("spec", "", "comma-separated sweep spec files (docs/SPEC.md); runs the specs' tables instead of the built-in catalog")
	fs.StringVar(&opts.submitURL, "submit", "", "POST each -spec file to this server's /v1/sweeps and relay the rendered response instead of running locally")
	fs.StringVar(&opts.apiKey, "api-key", "", "bearer API key sent with every -submit request (multi-tenant farms)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return options{}, err
		}
		return options{}, errPrinted
	}
	if opts.apiKey != "" && opts.submitURL == "" {
		return options{}, fmt.Errorf("-api-key authenticates -submit requests; it requires -submit")
	}
	if opts.submitURL != "" {
		if *specList == "" {
			return options{}, fmt.Errorf("-submit posts -spec files; it requires -spec")
		}
		// The farm runs the specs at its own scale, workers and store;
		// a flag that shapes a local run would be silently ignored.
		var conflicting []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "only", "list", "quick", "parallel", "store", "store-max-bytes", "cpuprofile", "memprofile":
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			return options{}, fmt.Errorf("-submit runs the specs on the farm; drop %s", strings.Join(conflicting, ", "))
		}
	}
	// The default is GOMAXPROCS (always positive), so a non-positive
	// value is necessarily explicit — reject it instead of silently
	// falling back to one worker.
	if opts.parallel <= 0 {
		return options{}, fmt.Errorf("-parallel must be positive (got %d)", opts.parallel)
	}
	if opts.storeMaxBytes < 0 {
		return options{}, fmt.Errorf("-store-max-bytes must be non-negative (got %d)", opts.storeMaxBytes)
	}
	if opts.storeMaxBytes > 0 && opts.storeDir == "" {
		return options{}, fmt.Errorf("-store-max-bytes requires -store")
	}

	// -spec swaps the experiment catalog for the named spec files'
	// tables (the built-in catalog stays reachable through -only, which
	// resolves ids against spec tables first, then built-ins). A spec
	// that pins a scale pins the whole run's. Every file compiles here,
	// -submit or not, so a broken spec fails before it travels.
	var specExps []harness.Experiment
	if *specList != "" {
		seen := make(map[string]bool)
		for _, path := range parseStringList(*specList) {
			data, err := os.ReadFile(path)
			if err != nil {
				return options{}, err
			}
			c, err := spec.Compile(data)
			if err != nil {
				return options{}, fmt.Errorf("%s: %w", path, err)
			}
			opts.specFiles = append(opts.specFiles, specFile{path: path, data: data})
			if sc := c.Spec.Scale; sc != nil {
				hs := sc.Harness()
				if opts.quick {
					return options{}, fmt.Errorf("%s pins a scale; it cannot combine with -quick", path)
				}
				if opts.specScale != nil && *opts.specScale != hs {
					return options{}, fmt.Errorf("-spec files pin conflicting scales (%+v vs %+v)", *opts.specScale, hs)
				}
				opts.specScale = &hs
			}
			for _, e := range c.Experiments() {
				if seen[e.ID] {
					return options{}, fmt.Errorf("duplicate experiment id %q across -spec files", e.ID)
				}
				seen[e.ID] = true
				specExps = append(specExps, e)
			}
		}
		opts.specExps = specExps
	}

	switch {
	case opts.submitURL != "":
		// The farm renders every table; nothing runs here.
	case only != "":
		// Spec tables lead, so they shadow catalog ids of the same name.
		// A repeated id runs (and reports) its table once.
		sel, err := harness.Select(slices.Concat(specExps, spec.Catalog()), only)
		if err != nil {
			return options{}, fmt.Errorf("%w in -only; use -list", err)
		}
		opts.run = sel
	case specExps != nil:
		opts.run = specExps
	default:
		opts.run = spec.Catalog()
	}
	return opts, nil
}

// submit posts each -spec file, in order, to the farm's /v1/sweeps and
// returns the rendered bodies, byte for byte, one after another.
func submit(opts options) ([]byte, error) {
	format := "text"
	if opts.jsonOut {
		format = "json"
	}
	// The typed client decodes error envelopes and retries
	// quota/overload rejections honoring Retry-After; a sweep blocks
	// until rendered, so give it an unbounded request timeout.
	cl := client.New(opts.submitURL,
		client.WithAPIKey(opts.apiKey),
		client.WithHTTPClient(&http.Client{}))
	var bodies []byte
	for _, f := range opts.specFiles {
		body, err := cl.Sweep(context.Background(), f.data, format)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.path, err)
		}
		bodies = append(bodies, body...)
	}
	return bodies, nil
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
	if opts.list {
		// Spec tables lead: -only resolves their ids first, so the
		// listing mirrors the selection order. The tabwriter pads every
		// id to the longest one.
		w := tabwriter.NewWriter(stdout, 0, 0, 1, ' ', 0)
		for _, e := range opts.specExps {
			fmt.Fprintf(w, "%s\t%s (spec)\n", e.ID, e.Desc)
		}
		for _, e := range spec.Catalog() {
			fmt.Fprintf(w, "%s\t%s\n", e.ID, e.Desc)
		}
		w.Flush()
		return 0
	}

	// -out is opened only after every post has succeeded, so a
	// rejected or unreachable farm never truncates an existing report.
	var bodies []byte
	if opts.submitURL != "" {
		if bodies, err = submit(opts); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// Validate the remaining failure-capable setup — profile and report
	// output files — before simulating, so no exit path discards work.
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
	if opts.submitURL != "" {
		if _, err := out.Write(bodies); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	var memf *os.File
	if opts.memprofile != "" {
		f, err := os.Create(opts.memprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		memf = f
	}
	if opts.cpuprofile != "" {
		f, err := os.Create(opts.cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	scale := harness.FullScale()
	scaleName := "full"
	if opts.quick {
		scale = harness.QuickScale()
		scaleName = "quick"
	}
	if opts.specScale != nil {
		scale = *opts.specScale
		scaleName = "spec"
	}
	runner := harness.NewRunnerWorkers(scale, opts.parallel)
	if opts.storeDir != "" {
		st, err := store.Open(opts.storeDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if opts.storeMaxBytes > 0 {
			dropped, err := st.Prune(opts.storeMaxBytes)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if dropped > 0 {
				fmt.Fprintf(stderr, "store %s: pruned %d oldest records to fit %d bytes\n",
					st.Dir(), dropped, opts.storeMaxBytes)
			}
		}
		runner.SetStore(st)
		defer func() {
			s := st.Stats()
			fmt.Fprintf(stderr, "store %s: %d hits, %d misses, %d new records\n",
				st.Dir(), s.Hits, s.Misses, s.Puts)
		}()
	}

	start := time.Now()
	// Saturate the pool with every selected experiment's simulations
	// before any table is assembled; assembly then reads memoized
	// results, so output is identical at any worker count.
	runner.PrefetchScenarios(harness.AllScenarios(opts.run))
	if opts.jsonOut {
		rep := report.FromExperiments(runner, opts.run, scaleName)
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for _, e := range opts.run {
			t0 := time.Now()
			fmt.Fprintln(out, e.Run(runner))
			// Simulations were paid in the upfront Prefetch; this window
			// measures only table assembly from memoized results.
			fmt.Fprintf(out, "[%s assembled in %.2fs]\n\n", e.ID, time.Since(t0).Seconds())
		}
		fmt.Fprintf(out, "all experiments done in %.1fs (%d workers)\n",
			time.Since(start).Seconds(), runner.Workers())
	}

	if opts.cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if memf != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		memf.Close()
	}
	return 0
}
