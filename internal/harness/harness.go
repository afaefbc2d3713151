// Package harness executes experiments: a memoizing Runner that runs
// each distinct simulation once on a bounded worker pool (optionally
// backed by a persistent result store), and the Experiment type every
// reproduced table is compiled into. The experiments themselves are
// declared as sweep specs and compiled by internal/spec.
package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"shotgun/internal/sim"
	"shotgun/internal/stats"
)

// Scale sets simulation length. Quick is for tests; Full for the
// reported experiments. The JSON tags are a spec's "scale" spelling.
type Scale struct {
	WarmupInstr  uint64 `json:"warmup_instr"`
	MeasureInstr uint64 `json:"measure_instr"`
	Samples      int    `json:"samples"`
}

// QuickScale runs short simulations for smoke tests.
func QuickScale() Scale {
	return Scale{WarmupInstr: 300_000, MeasureInstr: 400_000, Samples: 1}
}

// FullScale is the reported-experiment configuration.
func FullScale() Scale {
	return Scale{WarmupInstr: 2_000_000, MeasureInstr: 3_000_000, Samples: 3}
}

// cacheKey is the identity of one simulation: the canonical encoding of
// the *normalized* scenario (every default made explicit, per-core
// specs in order), so two scenarios that would run the same simulation
// always collide on purpose, and two that would not never do. This is
// the same byte string internal/store hashes for content addressing —
// one identity from the in-memory memo to the on-disk cache.
type cacheKey string

// keyOf builds the cache key for a normalized scenario.
func keyOf(sc sim.Scenario) cacheKey {
	return cacheKey(sc.CanonicalBytes())
}

// flight is one memoized simulation. The sync.Once gives per-key
// single-flight semantics: concurrent callers of the same scenario block
// on the one in-progress computation instead of duplicating it.
type flight struct {
	once sync.Once
	res  sim.ScenarioResult
}

// ResultStore is the persistence hook a Runner consults before
// simulating (implemented by internal/store). GetScenario returns a
// previously persisted result for a normalized scenario; PutScenario
// records a freshly computed one. Implementations must be safe for
// concurrent use by the worker pool.
type ResultStore interface {
	GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool)
	PutScenario(sc sim.Scenario, res sim.ScenarioResult) error
}

// Runner memoizes simulation results so experiments sharing
// configurations (e.g. the no-prefetch baseline) run once, and executes
// independent simulations on a bounded worker pool. Results are
// deterministic and independent of worker count or completion order: each
// simulation is self-contained, so a table assembled from memoized
// results is byte-identical whether it ran on one worker or many.
//
// With a ResultStore attached, the runner checks the store before
// simulating and persists every fresh result, so a warm restart serves
// previously computed configurations without re-simulating.
type Runner struct {
	scale   Scale
	workers int
	store   ResultStore

	mu    sync.Mutex
	cache map[cacheKey]*flight
}

// NewRunner builds a runner at the given scale with one worker per
// available CPU.
func NewRunner(scale Scale) *Runner {
	return NewRunnerWorkers(scale, runtime.GOMAXPROCS(0))
}

// NewRunnerWorkers builds a runner with an explicit worker-pool size
// (values below 1 mean 1). One worker reproduces the serial seed
// behaviour exactly.
func NewRunnerWorkers(scale Scale, workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	return &Runner{
		scale:   scale,
		workers: workers,
		cache:   make(map[cacheKey]*flight),
	}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// SetStore attaches a persistent result store. Attach before the first
// Run/Prefetch: the field is read by worker goroutines without locking,
// so it must not change once simulations are in flight.
func (r *Runner) SetStore(s ResultStore) { r.store = s }

// compute executes one scenario, consulting the persistent store (when
// attached) on both sides: a stored result short-circuits the
// simulation, and a fresh one is persisted for later processes.
// Persistence is best-effort — a failed Put loses the cache entry for
// the next restart, never the current batch (the store tracks its own
// error counts).
func (r *Runner) compute(sc sim.Scenario) sim.ScenarioResult {
	if r.store != nil {
		if res, ok := r.store.GetScenario(sc); ok {
			return res
		}
	}
	res := sim.MustRunScenario(sc)
	if r.store != nil {
		_ = r.store.PutScenario(sc, res)
	}
	return res
}

// pinScenario stamps the runner's scale onto every core of a scenario,
// preserving the caller's core order. It is the one place scale fields
// are pinned.
func (r *Runner) pinScenario(sc sim.Scenario) sim.Scenario {
	cores := make([]sim.Config, len(sc.Cores))
	for i, cfg := range sc.Cores {
		cfg.WarmupInstr = r.scale.WarmupInstr
		cfg.MeasureInstr = r.scale.MeasureInstr
		cfg.Samples = r.scale.Samples
		cores[i] = cfg
	}
	sc.Cores = cores
	return sc
}

// NormalizeScenario pins the runner's scale onto every core of the
// scenario and normalizes the result (canonical core order included) —
// the scenario-level identity the memo, the store and the HTTP job
// table all share.
func (r *Runner) NormalizeScenario(sc sim.Scenario) sim.Scenario {
	return r.pinScenario(sc).Normalized()
}

// flightFor returns the (created-once) flight for a normalized scenario.
func (r *Runner) flightFor(sc sim.Scenario) *flight {
	key := keyOf(sc)
	r.mu.Lock()
	f, ok := r.cache[key]
	if !ok {
		f = &flight{}
		r.cache[key] = f
	}
	r.mu.Unlock()
	return f
}

// Seed primes the memo with an externally computed result for a
// normalized scenario. The HTTP server renders a sweep or an experiment
// on a runner built for that request and seeded from the request's
// finished jobs, so the render reads the farm's results instead of
// re-simulating them. The scenario must be normalized and res in its
// core order; if the key is already memoized or in flight, the
// existing result wins (it is the same simulation by identity).
func (r *Runner) Seed(sc sim.Scenario, res sim.ScenarioResult) {
	f := r.flightFor(sc)
	f.once.Do(func() { f.res = res })
}

// RunScenario executes (or recalls) one scenario at the runner's scale.
// Concurrent callers of the same scenario — including callers holding
// per-core permutations of it — share a single execution; results come
// back in the caller's core order.
func (r *Runner) RunScenario(sc sim.Scenario) sim.ScenarioResult {
	norm, perm := r.pinScenario(sc).NormalizedPerm()
	f := r.flightFor(norm)
	f.once.Do(func() { f.res = r.compute(norm) })
	return f.res.Reorder(perm)
}

// Run executes (or recalls) one single-core simulation: the N=1
// scenario's core-0 result.
func (r *Runner) Run(cfg sim.Config) sim.Result {
	return r.RunScenario(sim.SingleCore(cfg)).Cores[0]
}

// PrefetchScenarios runs every given scenario on the worker pool and
// returns when all results are memoized. Duplicate scenarios (and
// scenarios already cached or in flight) cost nothing extra. Each
// experiment declares its full scenario set through PrefetchScenarios
// before assembling its table, so the pool saturates every core while
// assembly stays simple and serial. With one worker the jobs run in
// the order given.
func (r *Runner) PrefetchScenarios(scs []sim.Scenario) {
	type job struct {
		sc sim.Scenario
		f  *flight
	}
	// Deduplicate up front so the pool only sees distinct simulations.
	seen := make(map[cacheKey]bool, len(scs))
	var jobs []job
	for _, sc := range scs {
		sc = r.NormalizeScenario(sc)
		key := keyOf(sc)
		if seen[key] {
			continue
		}
		seen[key] = true
		jobs = append(jobs, job{sc: sc, f: r.flightFor(sc)})
	}
	if len(jobs) == 0 {
		return
	}
	workers := r.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range ch {
				j.f.once.Do(func() { j.f.res = r.compute(j.sc) })
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// Experiment pairs an identifier with its render function and the full
// set of simulations it will request — the planning information
// PrefetchScenarios uses to saturate the worker pool before any table
// is assembled.
type Experiment struct {
	ID   string
	Desc string
	// Table runs the experiment and returns its structured table; text
	// callers use Run, machine-readable callers (internal/report, the
	// HTTP server) serialize the table directly.
	Table func(*Runner) *stats.Table
	// Scenarios declares every simulation Table will need (single-core
	// experiments declare N=1 scenarios); nil for pure trace analyses
	// (Figures 3 and 4) that run no timing simulation.
	Scenarios func() []sim.Scenario
}

// Run renders the experiment as the text table the paper reports.
func (e Experiment) Run(r *Runner) string { return e.Table(r).String() }

// Select resolves a comma-separated list of experiment ids against
// exps, in list order. Spaces around an id are trimmed, a repeated id
// keeps only its first position, and an id that names none of exps
// fails with an error naming it. Where two experiments share an id the
// earlier one wins, so a caller puts the list that shadows first.
func Select(exps []Experiment, ids string) ([]Experiment, error) {
	byID := make(map[string]Experiment, len(exps))
	for i := len(exps) - 1; i >= 0; i-- {
		byID[exps[i].ID] = exps[i]
	}
	var picked []Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		if !seen[id] {
			seen[id] = true
			picked = append(picked, e)
		}
	}
	return picked, nil
}

// AllScenarios returns the union (with duplicates; PrefetchScenarios
// deduplicates) of every experiment's scenario set — the whole
// evaluation's work list, used to saturate the pool across experiment
// boundaries.
func AllScenarios(exps []Experiment) []sim.Scenario {
	var scs []sim.Scenario
	for _, e := range exps {
		if e.Scenarios != nil {
			scs = append(scs, e.Scenarios()...)
		}
	}
	return scs
}
