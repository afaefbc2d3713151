// This file is the scenario layer: a simulation is no longer "one core
// plus a background constant" but "N cores of a CMP sharing an uncore".
// Each core has its own workload, control-flow delivery mechanism and
// private caches; the LLC capacity and the mesh backlog are genuinely
// shared, so co-runner interference (the paper's Figure 11 over-prefetch
// effect, shared-LLC pressure, heterogeneous mixes) is emergent
// behaviour instead of a baked-in fluid-queue constant. The single-core
// simulation of the original evaluation is exactly the N=1 scenario:
// Run builds and drives it through the same code as any other shape.

package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"shotgun/internal/btb"
	"shotgun/internal/core"
	"shotgun/internal/noc"
	"shotgun/internal/prefetch"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// MaxCores is the largest scenario the simulator supports: one active
// core per tile of the biggest mesh on the NoC scaling ladder (the
// 16x16 scale-out design point). Scenarios up to 16 cores run on the
// Table 3 4x4 CMP exactly as before; larger ones move to the 8x8 and
// 16x16 meshes of noc.SharedConfig.
var MaxCores = noc.MaxTiles

// PerCoreLLCBytes is one core's modeled share of the 8MB NUCA LLC.
const PerCoreLLCBytes = 1 << 20

// TotalLLCBytes is the full Table 3 LLC capacity.
const TotalLLCBytes = 8 << 20

// Scenario describes one simulation of N cores over a shared uncore.
//
// A scenario's core list is a multiset: two scenarios whose Cores are
// permutations of each other describe the same simulation and share one
// content identity (Normalized sorts cores into the canonical order, and
// RunScenario maps per-core results back to the caller's order). Callers
// still read "their" core i at Cores[i] of the result — permuting the
// input permutes the output identically.
type Scenario struct {
	// Cores lists the per-core simulation specs, one per active core.
	// The caller's core 0 is the "primary" core by convention;
	// canonical indices salt the per-core walk and data seeds so
	// identical co-runners do not execute in lockstep.
	Cores []Config
	// LLCSizeBytes is the total shared LLC capacity. Zero derives the
	// Table 3 share: PerCoreLLCBytes per active core, capped at the 8MB
	// NUCA total.
	LLCSizeBytes int
}

// SingleCore wraps one config as the N=1 scenario: one simulation's
// identity in the harness memo, the store and the HTTP job table.
func SingleCore(cfg Config) Scenario {
	return Scenario{Cores: []Config{cfg}}
}

// DefaultLLCBytes returns the derived shared-LLC capacity for an n-core
// scenario: each active core brings its 1MB NUCA share, up to the 8MB
// Table 3 total.
func DefaultLLCBytes(n int) int {
	if n < 1 {
		n = 1
	}
	b := n * PerCoreLLCBytes
	if b > TotalLLCBytes {
		b = TotalLLCBytes
	}
	return b
}

// compareConfigs is the total order behind the canonical core order:
// field-by-field on the normalized config, cheapest discriminators
// first. The order is arbitrary but frozen — golden scenarios (the
// interference sweep's primary-then-co-runners shape) are already
// canonically ordered under it, which keeps their executed core
// indices, and therefore their index-salted seeds, bit-stable.
func compareConfigs(a, b Config) int {
	if c := strings.Compare(a.Workload, b.Workload); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Mechanism), string(b.Mechanism)); c != 0 {
		return c
	}
	ints := [][2]int{
		{a.BTBEntries, b.BTBEntries},
		{a.Layout.Before, b.Layout.Before},
		{a.Layout.After, b.Layout.After},
		{int(a.RegionMode), int(b.RegionMode)},
		{sizesRank(a.ShotgunSizes), sizesRank(b.ShotgunSizes)},
		{a.Samples, b.Samples},
	}
	if a.ShotgunSizes != nil && b.ShotgunSizes != nil {
		ints = append(ints, [2]int{a.ShotgunSizes.UEntries, b.ShotgunSizes.UEntries},
			[2]int{a.ShotgunSizes.CEntries, b.ShotgunSizes.CEntries},
			[2]int{a.ShotgunSizes.REntries, b.ShotgunSizes.REntries})
	}
	for _, p := range ints {
		if p[0] != p[1] {
			if p[0] < p[1] {
				return -1
			}
			return 1
		}
	}
	for _, p := range [][2]uint64{
		{a.WarmupInstr, b.WarmupInstr},
		{a.MeasureInstr, b.MeasureInstr},
		{a.SkipInstr, b.SkipInstr},
	} {
		if p[0] != p[1] {
			if p[0] < p[1] {
				return -1
			}
			return 1
		}
	}
	// Sampling, BPU and Contexts compare last, appended to the frozen
	// order: their zero values (exact mode, default TAGE, single
	// context — every pre-axis config) rank before any non-default, so
	// existing canonical core orders are undisturbed.
	if c := compareSampling(a.Sampling, b.Sampling); c != 0 {
		return c
	}
	if c := strings.Compare(a.BPU, b.BPU); c != 0 {
		return c
	}
	switch {
	case a.Contexts < b.Contexts:
		return -1
	case a.Contexts > b.Contexts:
		return 1
	}
	return 0
}

// sizesRank orders the absence of an explicit size override before any
// explicit one.
func sizesRank(s *btb.Sizes) int {
	if s == nil {
		return 0
	}
	return 1
}

// Normalized returns the scenario in canonical form: every defaulted
// field made explicit (per-core configs normalized, the derived LLC
// capacity materialized) and the cores stable-sorted into the canonical
// order — exactly the values RunScenario would execute. Content
// identity (harness memo keys, store hashes) is derived from this form,
// so equivalent scenarios — including per-core permutations of each
// other — always collide and distinct ones never do.
func (s Scenario) Normalized() Scenario {
	n, _ := s.NormalizedPerm()
	return n
}

// NormalizedPerm returns the canonical scenario plus the permutation
// that links it to the caller's core order: perm[i] is the canonical
// position of input core i, so a result computed in canonical order
// reads back as out[i] = canonical.Cores[perm[i]]. The sort is stable,
// which makes the mapping well-defined even for duplicate configs (the
// k-th copy in input order is the k-th copy in canonical order).
func (s Scenario) NormalizedPerm() (Scenario, []int) {
	cores := make([]Config, len(s.Cores))
	for i, cfg := range s.Cores {
		cores[i] = cfg.Normalized()
	}
	order := make([]int, len(cores)) // order[k] = input index at canonical position k
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compareConfigs(cores[order[a]], cores[order[b]]) < 0
	})
	sorted := make([]Config, len(cores))
	perm := make([]int, len(cores))
	for k, orig := range order {
		sorted[k] = cores[orig]
		perm[orig] = k
	}
	s.Cores = sorted
	if s.LLCSizeBytes == 0 {
		s.LLCSizeBytes = DefaultLLCBytes(len(sorted))
	}
	return s, perm
}

// CanonicalBytes returns the canonical encoding of the normalized
// scenario: the JSON of a struct with fixed field order — no maps, no
// formatting choices — stable across processes and platforms, and
// invariant under per-core permutation (Normalized sorts the cores).
// The harness memo uses it directly as a map key; internal/store hashes
// it for content addressing.
func (s Scenario) CanonicalBytes() []byte {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		// Scenario is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("sim: marshal scenario: %v", err))
	}
	return b
}

// Validate reports whether the scenario describes a runnable
// simulation. Like Config.Validate it checks the normalized form.
func (s Scenario) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("sim: scenario needs at least one core")
	}
	if len(s.Cores) > MaxCores {
		return fmt.Errorf("sim: scenario has %d cores; the %d-tile mesh supports at most %d",
			len(s.Cores), MaxCores, MaxCores)
	}
	for i, cfg := range s.Cores {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
		// Sampling is the single-core stream mode: the event kernel
		// simulates every cycle of every core and has no functional-
		// warming fast path, so a sampled config may only run as the
		// one-core scenario over the default LLC share.
		if cfg.Sampling != nil {
			if len(s.Cores) > 1 {
				return fmt.Errorf("sim: core %d: sampling requires a single-core scenario (got %d cores)", i, len(s.Cores))
			}
			if s.LLCSizeBytes != 0 && s.LLCSizeBytes != DefaultLLCBytes(1) {
				return fmt.Errorf("sim: sampling requires the default single-core LLC share (%d bytes, got %d)", DefaultLLCBytes(1), s.LLCSizeBytes)
			}
		}
	}
	if s.LLCSizeBytes < 0 {
		return fmt.Errorf("sim: negative LLC size %d", s.LLCSizeBytes)
	}
	if s.LLCSizeBytes != 0 && s.LLCSizeBytes < 64<<10 {
		return fmt.Errorf("sim: shared LLC of %d bytes is below the 64KB floor", s.LLCSizeBytes)
	}
	// The ceiling is the chip's whole NUCA cache: scenarios model this
	// CMP, and an unbounded size would let one (HTTP-submittable)
	// scenario eagerly allocate an arbitrarily large cache array.
	if s.LLCSizeBytes > TotalLLCBytes {
		return fmt.Errorf("sim: shared LLC of %d bytes exceeds the %d-byte Table 3 NUCA", s.LLCSizeBytes, TotalLLCBytes)
	}
	return nil
}

// ScenarioResult is the outcome of one scenario: one Result per core,
// in Cores order.
type ScenarioResult struct {
	Cores []Result
}

// RunScenario executes one scenario to completion. Exact scenarios of
// every shape, the one-core default of Run included, run on the event
// kernel over one shared uncore; a sampled (single-core) scenario runs
// the periodic-sampling schedule. Execution happens in canonical core
// order (so permuted scenarios are literally one simulation); the
// returned Cores are mapped back to the caller's order, so
// result.Cores[i] always describes the caller's Cores[i].
func RunScenario(sc Scenario) (ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return ScenarioResult{}, err
	}
	norm, perm := sc.NormalizedPerm()
	canon, err := simulate(norm, nil)
	if err != nil {
		return ScenarioResult{}, err
	}
	return canon.Reorder(perm), nil
}

// simulate builds a validated, normalized scenario and runs it: on the
// event kernel when exact, through runSampled when sampled (Validate
// admits sampling only in a one-core scenario). A non-nil stream drives
// core 0's first context in place of its walker. A sampled run reads
// that stream ahead on one goroutine of its own, which is joined before
// simulate returns or unwinds.
func simulate(sc Scenario, stream workload.Stream) (ScenarioResult, error) {
	states, err := buildStates(sc, stream)
	if err != nil {
		return ScenarioResult{}, err
	}
	if cfg := sc.Cores[0]; cfg.Sampling != nil {
		ahead := states[0].ahead
		ahead.start()
		defer ahead.stop()
		res := runSampled(cfg, states[0].c, states[0].engine)
		return ScenarioResult{Cores: []Result{res}}, nil
	}
	return runEvent(states), nil
}

// Reorder maps a canonical-order result back to a caller's core order:
// out.Cores[i] = r.Cores[perm[i]], with perm as NormalizedPerm returns
// it. A memoized canonical result can be served to every permutation of
// its scenario this way.
func (r ScenarioResult) Reorder(perm []int) ScenarioResult {
	identity := true
	for i, k := range perm {
		if i != k {
			identity = false
			break
		}
	}
	if identity {
		return r
	}
	out := ScenarioResult{Cores: make([]Result, len(perm))}
	for i, k := range perm {
		out.Cores[i] = r.Cores[k]
	}
	return out
}

// MustRunScenario is RunScenario for static scenarios.
func MustRunScenario(sc Scenario) ScenarioResult {
	r, err := RunScenario(sc)
	if err != nil {
		panic(err)
	}
	return r
}

// coreSalt perturbs per-core seeds so co-runners of the same workload
// take decorrelated walks. Core 0 is unsalted: a one-core scenario is
// bit-for-bit the classic single-core simulation.
func coreSalt(i int) uint64 {
	return uint64(i) * 0x9e3779b97f4a7c15
}

// phase is one instruction-bounded leg of a core's SMARTS schedule.
type phase struct {
	n       uint64
	reset   bool // ResetStats at phase start (measurement window)
	measure bool // accumulate stats when the phase completes
}

// phasesOf expands a config's warmup/skip/measure schedule into
// explicit phases the event kernel walks per core.
func phasesOf(cfg Config) []phase {
	ph := []phase{{n: cfg.WarmupInstr}}
	perWindow := cfg.MeasureInstr / uint64(cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		if s > 0 && cfg.SkipInstr > 0 {
			ph = append(ph, phase{n: cfg.SkipInstr})
		}
		ph = append(ph, phase{n: perWindow, reset: true, measure: true})
	}
	return ph
}

// coreState tracks one core through its phase schedule.
type coreState struct {
	c      *core.Core
	engine prefetch.Engine
	phases []phase
	pi     int
	target uint64
	res    Result
	done   bool
	// ahead is the read-ahead over context 0's stream of a sampled
	// core; simulate starts and stops it around runSampled.
	ahead *readAhead
}

// startPhase applies the current phase's entry action and sets its
// instruction target.
func (cs *coreState) startPhase() {
	p := cs.phases[cs.pi]
	if p.reset {
		cs.c.ResetStats()
	}
	cs.target = cs.c.Instructions() + p.n
}

// step advances the core's phase machine after a tick: a crossed target
// closes the phase (accumulating measured windows) and opens the next.
// The per-tick probe reads only the instruction counter and stays small
// enough to inline — this runs on every tick of every core, so it must
// not copy the whole Stats struct or cost a call.
func (cs *coreState) step() {
	if cs.c.Instructions() >= cs.target {
		cs.nextPhase()
	}
}

// nextPhase closes every phase whose target has been crossed; the loop
// handles zero-length phases, which complete instantly.
func (cs *coreState) nextPhase() {
	for !cs.done && cs.c.Instructions() >= cs.target {
		if cs.phases[cs.pi].measure {
			accumulate(&cs.res, cs.c, cs.engine)
		}
		cs.pi++
		if cs.pi == len(cs.phases) {
			cs.done = true
			return
		}
		cs.startPhase()
	}
}

// buildStates is the one place a simulation is assembled: the shared
// uncore of a normalized scenario, then each core's private hierarchy,
// delivery engine, core and phase schedule, in canonical order. Every
// driver — the event kernel, the sampled schedule and the lockstep test
// oracle — runs over state built here, so their results are comparable
// bit for bit: same mesh config, same attach order, same salted seeds.
// A non-nil stream replaces core 0's first walker (RunStream), and a
// sampled core's first stream is wrapped in a readAhead, not yet
// started.
func buildStates(sc Scenario, stream workload.Stream) ([]*coreState, error) {
	ucfg := uncore.DefaultConfig()
	ucfg.LLCSizeBytes = sc.LLCSizeBytes
	ucfg.Mesh = noc.SharedConfig(len(sc.Cores))
	for _, cfg := range sc.Cores {
		if cfg.Mechanism == Confluence {
			// ConfluenceLLCReserveBytes is scaled to one core's 1MB LLC
			// share, and each Confluence engine virtualizes its own
			// history image (see prefetch.NewConfluence), so the reserve
			// is charged once per Confluence core.
			ucfg.LLCReserveBytes += prefetch.ConfluenceLLCReserveBytes
		}
	}
	shared := uncore.NewShared(ucfg)

	states := make([]*coreState, len(sc.Cores))
	for i, cfg := range sc.Cores {
		prof, err := workload.Get(cfg.Workload)
		if err != nil {
			return nil, err
		}
		salt := coreSalt(i)
		hier := shared.AttachCore(i)
		// The program and its predecode image are process-wide shared,
		// immutable artifacts: built once per workload, walked by every
		// simulation (serial or concurrent) of that workload.
		engine, err := buildEngine(prefetch.Context{Hier: hier, Dec: prof.Decoder()}, cfg)
		if err != nil {
			return nil, err
		}
		ccfg := core.Config{
			CLZTage:    cfg.BPU == BPUCLZ,
			LoadFrac:   prof.LoadFrac,
			DataBlocks: prof.DataBlocks,
			DataZipfS:  prof.DataZipfS,
			DataSeed:   prof.WalkSeed ^ 0xd00d ^ salt,
		}
		// Context 0's walk seed carries only the core salt, so a
		// one-context core walks the exact single-context stream.
		streams := make([]workload.Stream, max(cfg.Contexts, 1))
		for k := range streams {
			streams[k] = workload.NewWalkerConfig(prof.Program(), prof.WalkSeed^salt^contextSalt(k), prof.Walk)
		}
		if i == 0 && stream != nil {
			streams[0] = stream
		}
		var ahead *readAhead
		if cfg.Sampling != nil {
			ahead = newReadAhead(streams[0])
			streams[0] = ahead
		}
		cs := &coreState{
			c:      core.New(ccfg, streams, engine, hier),
			engine: engine,
			phases: phasesOf(cfg),
			res:    Result{Workload: cfg.Workload, Mechanism: cfg.Mechanism},
			ahead:  ahead,
		}
		cs.startPhase()
		states[i] = cs
	}
	return states, nil
}

// results closes out the per-core states into a canonical-order result.
func results(states []*coreState) ScenarioResult {
	out := ScenarioResult{Cores: make([]Result, len(states))}
	for i, cs := range states {
		cs.res.PrefetchAccuracy = prefetchAccuracy(cs.res.Hier)
		out.Cores[i] = cs.res
	}
	return out
}
