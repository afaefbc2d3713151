package main

import (
	"fmt"
	"os"
	"path/filepath"

	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/workload"
	"shotgun/internal/xrand"
)

// Every input of every workload is a pure function of (workload, seed,
// size) and, for the farm, the repository's spec documents: the
// generators below draw from an xrand stream salted per workload, so the
// same seed always gives byte-identical inputs and the program under
// test only ever sees what they return.

// size scales a workload's inputs. Full is what the benchmark measures;
// tiny keeps the self-tests' smoke runs to a second or two.
type size struct {
	// solo: per-cell budget, the replay trace's length and the sampling
	// schedule that covers it.
	soloWarmup, soloMeasure uint64
	traceBlocks             int
	sampling                sim.Sampling

	// cmp: per-core budgets, how many 8-core scenarios there are, and
	// the big scenario's core count.
	cmp8Warmup, cmp8Measure   uint64
	cmp64Warmup, cmp64Measure uint64
	cmpSmall, cmpBigCores     int

	// farm: the pinned server scale, the request pool, the cadence of
	// sweeps and new keys, and how many stored scenarios one warm
	// submit asks for.
	farmWarmup, farmMeasure uint64
	farmRequests            int
	farmSweepEvery          int
	farmWarmNewEvery        int
	farmWarmBatch           int
	farmMinCold             int

	// setupChildren is how many set-up-only child processes setup_s is
	// the median of; 0 reports the run's own set-up instead.
	setupChildren int
}

var fullSize = size{
	soloWarmup: 100_000, soloMeasure: 150_000,
	traceBlocks: 524_288,
	sampling: sim.Sampling{
		PeriodBlocks: 131_072, WarmupBlocks: 512, UnitBlocks: 512,
		FuncWarmBlocks: 2_048, Units: 4,
	},
	cmp8Warmup: 60_000, cmp8Measure: 90_000,
	cmp64Warmup: 20_000, cmp64Measure: 30_000,
	cmpSmall: 6, cmpBigCores: 64,
	farmWarmup: 20_000, farmMeasure: 30_000,
	farmRequests: 2_000, farmSweepEvery: 32, farmWarmNewEvery: 4096, farmWarmBatch: 16, farmMinCold: 64,
	setupChildren: 3,
}

var tinySize = size{
	soloWarmup: 5_000, soloMeasure: 5_000,
	traceBlocks: 16_384,
	sampling: sim.Sampling{
		PeriodBlocks: 4_096, WarmupBlocks: 128, UnitBlocks: 128,
		FuncWarmBlocks: 512, Units: 4,
	},
	cmp8Warmup: 3_000, cmp8Measure: 3_000,
	cmp64Warmup: 1_000, cmp64Measure: 1_000,
	cmpSmall: 1, cmpBigCores: 16,
	farmWarmup: 2_000, farmMeasure: 2_000,
	farmRequests: 200, farmSweepEvery: 16, farmWarmNewEvery: 8, farmWarmBatch: 4, farmMinCold: 8,
}

// rngFor returns the input stream of one workload under one seed.
func rngFor(name string, seed uint64) *xrand.Source {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return xrand.New(h ^ seed*0x9e3779b97f4a7c15)
}

// budgets are the conventional BTB budgets a cell may draw; each has a
// Shotgun storage mapping.
var budgets = []int{1024, 2048, 4096}

var regionModes = []prefetch.RegionMode{
	prefetch.RegionVector, prefetch.RegionNone, prefetch.RegionEntire, prefetch.RegionFiveBlocks,
}

// drawConfig draws the per-core knobs that leave the workload and
// mechanism to the caller: BTB budget and direction predictor, and for
// Shotgun the region-prefetch mode, taken from modes when it is non-nil
// and drawn otherwise.
func drawConfig(r *xrand.Source, wl string, m sim.Mechanism, modes *cycle[prefetch.RegionMode]) sim.Config {
	cfg := sim.Config{Workload: wl, Mechanism: m, BTBEntries: budgets[r.Intn(len(budgets))]}
	if r.Intn(2) == 1 {
		cfg.BPU = sim.BPUCLZ
	}
	if m == sim.Shotgun {
		if modes != nil {
			cfg.RegionMode = modes.next()
		} else {
			cfg.RegionMode = regionModes[r.Intn(len(regionModes))]
		}
		if cfg.RegionMode == prefetch.RegionEntire {
			cfg.Layout = footprint.Layout32
		}
	}
	return cfg
}

// cycle hands out a seed-shuffled list's items round robin.
type cycle[T any] struct {
	items []T
	i     int
}

func newCycle[T any](r *xrand.Source, items []T) *cycle[T] {
	c := &cycle[T]{items: append([]T(nil), items...)}
	shuffle(r, c.items)
	return c
}

func (c *cycle[T]) next() T {
	v := c.items[c.i%len(c.items)]
	c.i++
	return v
}

// soloInputs are the solo workload's generated inputs.
type soloInputs struct {
	// Cells are the exact single-core runs, in execution order.
	Cells []sim.Config
	// TraceWorkload and TraceSeed fix the walk the replay trace is
	// recorded from.
	TraceWorkload string
	TraceSeed     uint64
}

// genSolo stratifies the exact cells so every seed runs every
// (workload, mechanism) pair once, and the six Shotgun cells cycle
// through the region modes from a drawn offset: the seed draws each
// cell's budget and predictor, which mode goes with which workload, and
// the execution order, while the host cost of a pass stays nearly
// seed-independent.
func genSolo(seed uint64, sz size) soloInputs {
	r := rngFor("solo", seed)
	modes := newCycle(r, regionModes)
	var cells []sim.Config
	for _, wl := range workload.Names() {
		for _, m := range sim.Mechanisms() {
			cfg := drawConfig(r, wl, m, modes)
			cfg.WarmupInstr, cfg.MeasureInstr, cfg.Samples = sz.soloWarmup, sz.soloMeasure, 1
			cells = append(cells, cfg)
		}
	}
	shuffle(r, cells)
	prof := workload.MustGet("Oracle")
	return soloInputs{Cells: cells, TraceWorkload: prof.Name, TraceSeed: prof.WalkSeed ^ r.Uint64()}
}

// cmpInputs are the cmp workload's generated scenarios.
type cmpInputs struct {
	Small []sim.Scenario // 8 cores, 4x4 mesh
	Big   sim.Scenario   // 64 cores, 8x8 mesh
}

// genCMP builds the 8-core scenarios and the 64-core one. Core 0 is
// always the Oracle Shotgun primary. In the 8-core scenarios the seven
// co-runners run every mechanism but the ideal one, the Shotgun
// co-runner as an entire-region over-prefetcher; in the 64-core one
// mechanisms and Shotgun region modes cycle. Mechanisms and workloads
// each cycle through a seed-shuffled order, so across the six 8-core
// scenarios every mechanism meets every workload once, and the 64-core
// scenario carries a near-even mix. The seed also draws each
// co-runner's budget and predictor.
func genCMP(seed uint64, sz size) cmpInputs {
	r := rngFor("cmp", seed)
	names := newCycle(r, workload.Names())
	build := func(cores int, warm, measure uint64, mechs *cycle[sim.Mechanism], modes *cycle[prefetch.RegionMode]) sim.Scenario {
		cfgs := []sim.Config{{Workload: "Oracle", Mechanism: sim.Shotgun}}
		for i := 1; i < cores; i++ {
			cfgs = append(cfgs, drawConfig(r, names.next(), mechs.next(), modes))
		}
		for i := range cfgs {
			cfgs[i].WarmupInstr, cfgs[i].MeasureInstr, cfgs[i].Samples = warm, measure, 1
		}
		return sim.Scenario{Cores: cfgs}
	}
	var in cmpInputs
	smallMechs := newCycle(r, sim.Mechanisms()[:7])
	entire := &cycle[prefetch.RegionMode]{items: []prefetch.RegionMode{prefetch.RegionEntire}}
	for i := 0; i < sz.cmpSmall; i++ {
		in.Small = append(in.Small, build(8, sz.cmp8Warmup, sz.cmp8Measure, smallMechs, entire))
	}
	in.Big = build(sz.cmpBigCores, sz.cmp64Warmup, sz.cmp64Measure, newCycle(r, sim.Mechanisms()), newCycle(r, regionModes))
	return in
}

// farmRequest is one client request: a scenario submit, or a sweep of
// one of the repository's spec documents. Cores is what the request
// delivers: the scenario's cores, or the sweep expansion's distinct
// scenarios' cores.
type farmRequest struct {
	Scenario sim.Scenario `json:",omitempty"`
	Sweep    string       `json:",omitempty"`
	Cores    int
}

// farmSpecs is what the farm's traffic is drawn from: the repository's
// own sweep documents (specs/*.json), the record of what the farm
// serves.
type farmSpecs struct {
	// Sweeps are the documents posted whole to /v1/sweeps: every spec
	// whose tables all simulate on at most farmMaxCores cores, by file
	// name.
	Sweeps []specDoc
	// Cells are the distinct scenarios, of at most farmMaxCores cores,
	// of every spec's expansion, in file and expansion order. Submits
	// are drawn from them.
	Cells []sim.Scenario
}

// specDoc is one sweep document and its expansion.
type specDoc struct {
	Name      string
	Doc       []byte
	Scenarios []sim.Scenario // distinct, in expansion order
}

// farmMaxCores bounds the scenarios the farm takes from the specs: at
// the pinned scale an 8-core cell costs about ten one-core requests, a
// 64-core one over a hundred.
const farmMaxCores = 8

// loadSpecs compiles every specs/*.json document under dir.
func loadSpecs(dir string) (farmSpecs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return farmSpecs{}, err
	}
	if len(files) == 0 {
		return farmSpecs{}, fmt.Errorf("no sweep documents in %s", dir)
	}
	var fs farmSpecs
	cells := map[string]bool{}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			return farmSpecs{}, err
		}
		c, err := spec.Compile(doc)
		if err != nil {
			return farmSpecs{}, fmt.Errorf("%s: %w", f, err)
		}
		d := specDoc{Name: filepath.Base(f), Doc: doc}
		seen := map[string]bool{}
		sweepable := len(c.Spec.Tables) > 0
		for _, t := range c.Spec.Tables {
			if t.RegionCDF != nil || t.BranchCoverage != nil {
				sweepable = false // trace analyses simulate nothing
			}
		}
		for _, sc := range c.Scenarios() {
			if len(sc.Cores) > farmMaxCores {
				sweepable = false
				continue
			}
			id := string(sc.Normalized().CanonicalBytes())
			if !seen[id] {
				seen[id] = true
				d.Scenarios = append(d.Scenarios, sc)
			}
			if !cells[id] {
				cells[id] = true
				fs.Cells = append(fs.Cells, sc)
			}
		}
		if sweepable {
			fs.Sweeps = append(fs.Sweeps, d)
		}
	}
	return fs, nil
}

// genFarm draws the request pool from the specs. The sweeps are every
// sweepable spec once, in a drawn order, one at every farmSweepEvery-th
// request. Each submit is a drawn spec cell with its BTB budget,
// predictor and shared-LLC size redrawn, so that no submit repeats a
// spec cell or another submit: the cold phase's submits never hit the
// store. (Cells two specs share are simulated once, by whichever sweep
// comes first, and served to the other by content-key dedup, as for any
// sweep.) Scenarios are left unpinned: the server pins its scale.
func genFarm(seed uint64, sz size, fs farmSpecs) []farmRequest {
	r := rngFor("farm", seed)
	sweeps := append([]specDoc(nil), fs.Sweeps...)
	shuffle(r, sweeps)
	seen := make(map[string]bool)
	fresh := func(sc sim.Scenario) bool {
		id := string(sc.Normalized().CanonicalBytes())
		if seen[id] {
			return false
		}
		seen[id] = true
		return true
	}
	for _, sc := range fs.Cells {
		fresh(sc)
	}
	var reqs []farmRequest
	for draws := 0; len(reqs) < sz.farmRequests; draws++ {
		if draws > 20*sz.farmRequests {
			panic("perfbench: farm input space exhausted")
		}
		if len(sweeps) > 0 && len(reqs)%sz.farmSweepEvery == sz.farmSweepEvery-1 {
			d := sweeps[0]
			sweeps = sweeps[1:]
			reqs = append(reqs, farmRequest{Sweep: d.Name, Cores: scenarioCores(d.Scenarios)})
			continue
		}
		cell := fs.Cells[r.Intn(len(fs.Cells))]
		sc := sim.Scenario{LLCSizeBytes: llcSizes[r.Intn(len(llcSizes))]}
		for _, c := range cell.Cores {
			if c.ShotgunSizes == nil {
				c.BTBEntries = budgets[r.Intn(len(budgets))]
			}
			c.BPU = ""
			if r.Intn(2) == 1 {
				c.BPU = sim.BPUCLZ
			}
			sc.Cores = append(sc.Cores, c)
		}
		// Sampled cells keep the default LLC share: redraws the simulator
		// rejects are dropped.
		if sc.Validate() == nil && fresh(sc) {
			reqs = append(reqs, farmRequest{Scenario: sc, Cores: len(sc.Cores)})
		}
	}
	return reqs
}

// scenarioCores counts the cores of a set of scenarios.
func scenarioCores(scs []sim.Scenario) int {
	n := 0
	for _, sc := range scs {
		n += len(sc.Cores)
	}
	return n
}

// llcSizes are the shared-LLC capacities a farm submit may draw; 0 is
// the derived Table 3 share.
var llcSizes = []int{0, 512 << 10, 2 << 20, 4 << 20}

// shuffle is a Fisher-Yates shuffle driven by the input stream.
func shuffle[T any](r *xrand.Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
