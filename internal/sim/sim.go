// Package sim assembles complete simulations: it wires a workload
// profile, a control-flow delivery mechanism, and the Table 3 memory
// hierarchy into a core, runs SMARTS-style warmup+measurement sampling,
// and returns the statistics every experiment in the paper is built
// from.
//
// Two units exist. A Config describes one core's simulation; a Scenario
// (scenario.go) is the general unit — N configured cores over one
// genuinely shared LLC and NoC — of which Run(cfg) is the N=1 case: one
// builder assembles every simulation and the event kernel (event.go)
// drives every exact one. Identity contract: Scenario.Normalized
// makes every default explicit and sorts cores canonically, and
// CanonicalBytes of that form is THE content identity — the harness
// memo keys on it, internal/store hashes it, and the dispatch cluster
// leases by it, so equivalent scenarios (including per-core
// permutations) always collide and distinct ones never do.
package sim

import (
	"fmt"

	"shotgun/internal/btb"
	"shotgun/internal/core"
	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// Mechanism names a control-flow delivery scheme.
type Mechanism string

// The mechanisms of the evaluation plus the related work discussed in
// Section 4.3 (RDIP).
const (
	None       Mechanism = "none"
	FDIP       Mechanism = "fdip"
	RDIP       Mechanism = "rdip"
	Delta      Mechanism = "delta"
	Boomerang  Mechanism = "boomerang"
	Confluence Mechanism = "confluence"
	Shotgun    Mechanism = "shotgun"
	Ideal      Mechanism = "ideal"
)

// Mechanisms lists every scheme in presentation order.
func Mechanisms() []Mechanism {
	return []Mechanism{None, FDIP, RDIP, Delta, Boomerang, Confluence, Shotgun, Ideal}
}

// ParseMechanism maps a mechanism's spelling to the enum; it is the one
// check of a mechanism name, for specs, flags and submitted configs.
func ParseMechanism(name string) (Mechanism, error) {
	for _, m := range Mechanisms() {
		if string(m) == name {
			return m, nil
		}
	}
	return "", fmt.Errorf("sim: unknown mechanism %q (have %v)", name, Mechanisms())
}

// BPU axis values: the empty string is the default TAGE (kept implicit so
// every pre-axis content identity is byte-unchanged), BPUCLZ the
// CLZ-indexed variant.
const BPUCLZ = "clz"

// ParseBPU canonicalizes a BPU axis name: "" and "tage" mean the default
// predictor (canonical form ""), "clz" the CLZ-indexed TAGE.
func ParseBPU(s string) (string, error) {
	switch s {
	case "", "tage":
		return "", nil
	case BPUCLZ:
		return BPUCLZ, nil
	}
	return "", fmt.Errorf("sim: unknown BPU %q (have tage, clz)", s)
}

// MaxContexts bounds the multi-context front-end's context count.
const MaxContexts = 8

// Config describes one simulation.
type Config struct {
	// Workload is the profile name (workload.Names()).
	Workload string
	// Mechanism selects the control-flow delivery scheme.
	Mechanism Mechanism

	// BTBEntries is the conventional BTB budget (default 2048). Shotgun
	// derives its three structure sizes from the equivalent budget.
	BTBEntries int
	// ShotgunSizes overrides the derived sizes (C-BTB sensitivity).
	ShotgunSizes *btb.Sizes
	// Layout is the footprint geometry (default 8-bit: 2 before/6 after).
	Layout footprint.Layout
	// RegionMode is Shotgun's region-prefetch variant.
	RegionMode prefetch.RegionMode

	// WarmupInstr instructions warm the structures before measurement;
	// MeasureInstr instructions are measured, split into Samples windows
	// separated by warm (unmeasured) gaps of SkipInstr each.
	WarmupInstr  uint64
	MeasureInstr uint64
	SkipInstr    uint64
	Samples      int

	// Sampling, when non-nil, switches the run to SMARTS-style periodic
	// sampling (sampling.go): functional warming between short detailed
	// units, per-unit confidence intervals on the result. The omitempty
	// keeps nil — the exact mode every existing caller uses — out of
	// the canonical encoding, so exact-run content identities (memo
	// keys, store hashes, dispatch leases) are untouched by the field's
	// existence.
	Sampling *Sampling `json:",omitempty"`

	// BPU selects the direction-predictor variant: "" is the default
	// TAGE, BPUCLZ the CLZ-indexed one. Like Sampling, omitempty keeps
	// the default out of the canonical encoding so pre-axis content
	// identities are byte-unchanged.
	BPU string `json:",omitempty"`

	// Contexts is the multi-context front-end width: N>1 hardware
	// contexts (each walking its own salted trace) share the core's
	// fetch engine, BTB/prefetch engine, L1-I and direction predictor
	// with sub-cycle switch-on-stall. 0 and 1 both mean the classic
	// single-context core; 1 normalizes to 0 so the knob stays out of
	// the canonical encoding unless it changes behaviour.
	Contexts int `json:",omitempty"`
}

func (c *Config) setDefaults() {
	if c.BTBEntries == 0 {
		c.BTBEntries = 2048
	}
	if c.Layout.Bits() == 0 {
		c.Layout = footprint.Layout8
	}
	if c.WarmupInstr == 0 {
		c.WarmupInstr = 2_000_000
	}
	if c.MeasureInstr == 0 {
		c.MeasureInstr = 3_000_000
	}
	if c.Samples == 0 {
		c.Samples = 3
	}
	if c.SkipInstr == 0 {
		c.SkipInstr = 200_000
	}
	if c.Sampling != nil {
		// Copy before defaulting: setDefaults runs on a value receiver's
		// copy in Normalized, and writing through the shared pointer
		// would mutate the caller's struct.
		s := c.Sampling.WithDefaults()
		c.Sampling = &s
	}
	if c.BPU == "tage" {
		c.BPU = "" // canonical spelling of the default predictor
	}
	if c.Contexts == 1 {
		c.Contexts = 0 // canonical spelling of the single-context core
	}
}

// Normalized returns the config with every defaulted field made explicit
// — exactly the values Run would use. Memoizing callers (harness.Runner)
// key on the normalized form so equivalent configs share one simulation,
// and persistent stores (internal/store) hash it for content addressing.
func (c Config) Normalized() Config {
	c.setDefaults()
	return c
}

// Validate reports whether the config describes a runnable simulation.
// It checks the normalized form, so zero-valued fields with defaults are
// fine. Callers accepting configs from external sources (CLI flags, the
// HTTP server) validate before enqueueing instead of failing mid-batch.
func (c Config) Validate() error {
	n := c.Normalized()
	if _, err := workload.Get(n.Workload); err != nil {
		return err
	}
	if _, err := ParseMechanism(string(n.Mechanism)); err != nil {
		return err
	}
	if _, err := ParseBPU(n.BPU); err != nil {
		return err
	}
	if n.Contexts < 0 || n.Contexts > MaxContexts {
		return fmt.Errorf("sim: contexts must be in [0, %d] (got %d)", MaxContexts, n.Contexts)
	}
	if n.Contexts > 1 && n.Sampling != nil {
		return fmt.Errorf("sim: sampling requires a single-context core (got %d contexts)", n.Contexts)
	}
	if n.BTBEntries <= 0 {
		return fmt.Errorf("sim: BTB entries must be positive (got %d)", n.BTBEntries)
	}
	if n.Samples <= 0 {
		return fmt.Errorf("sim: samples must be positive (got %d)", n.Samples)
	}
	if err := n.Layout.Validate(); err != nil {
		return err
	}
	if err := n.RegionMode.Validate(); err != nil {
		return err
	}
	if n.Sampling != nil {
		if err := n.Sampling.Validate(); err != nil {
			return err
		}
	}
	if n.Mechanism == Shotgun {
		if n.ShotgunSizes != nil {
			if err := n.ShotgunSizes.Validate(); err != nil {
				return err
			}
		} else if _, err := btb.ShotgunSizesForBudget(n.BTBEntries); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of one simulation.
type Result struct {
	Workload  string
	Mechanism Mechanism

	Core core.Stats
	Hier uncore.Stats

	// BTBMisses is the engine's first-encounter miss count.
	BTBMisses uint64
	// PrefetchAccuracy is Figure 10's metric.
	PrefetchAccuracy float64

	// Sampled carries the per-unit confidence intervals of a sampled
	// run; nil for exact runs (and omitted from stored records, so
	// exact-run record encodings are unchanged).
	Sampled *SampledSummary `json:",omitempty"`
}

// IPC returns the measured instructions per cycle.
func (r Result) IPC() float64 { return r.Core.IPC() }

// BTBMPKI returns BTB misses per kilo-instruction (Table 1).
func (r Result) BTBMPKI() float64 { return r.Core.MPKI(r.BTBMisses) }

// L1IMPKI returns demand L1-I misses per kilo-instruction.
func (r Result) L1IMPKI() float64 {
	return r.Core.MPKI(r.Hier.DemandFetches - r.Hier.DemandL1IHits - r.Hier.DemandPrefBufHits)
}

// AvgDataFillCycles returns the mean L1-D miss fill latency (Figure 11).
func (r Result) AvgDataFillCycles() float64 { return r.Hier.AvgDataFillCycles() }

// Speedup returns this result's IPC relative to a baseline result.
func (r Result) Speedup(baseline Result) float64 {
	b := baseline.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC() / b
}

// StallCoverage returns the fraction of the baseline's front-end stall
// cycles this mechanism removed, normalized per instruction (Figure 6's
// metric).
func (r Result) StallCoverage(baseline Result) float64 {
	if baseline.Core.Instructions == 0 || r.Core.Instructions == 0 {
		return 0
	}
	base := float64(baseline.Core.FrontEndStallCycles) / float64(baseline.Core.Instructions)
	mine := float64(r.Core.FrontEndStallCycles) / float64(r.Core.Instructions)
	if base == 0 {
		return 0
	}
	cov := 1 - mine/base
	if cov < 0 {
		cov = 0
	}
	return cov
}

// Run executes one single-core simulation to completion: the one-core
// scenario over the default LLC share, so RunScenario(SingleCore(cfg))
// is the same simulation.
func Run(cfg Config) (Result, error) {
	return runCore(cfg, nil)
}

// RunStream executes one single-core simulation driven by an externally
// supplied retire-order block stream (e.g. a recorded trace replayed
// through trace.Stream) instead of the profile's walker. The config
// still names the workload: its program supplies the predecode image
// and data-side parameters, so the stream must have been recorded from
// (or be consistent with) that program's address space.
func RunStream(cfg Config, stream workload.Stream) (Result, error) {
	if stream == nil {
		return Result{}, fmt.Errorf("sim: RunStream requires a stream")
	}
	if cfg.Normalized().Contexts > 1 {
		return Result{}, fmt.Errorf("sim: RunStream requires a single-context core")
	}
	return runCore(cfg, stream)
}

// contextSalt decorrelates the per-context walker seeds of a
// multi-context core. Context 0 is unsalted: its stream is exactly the
// single-context one.
func contextSalt(k int) uint64 {
	return uint64(k) * 0xbf58476d1ce4e5b9
}

// runCore is the shared body of Run and RunStream: a nil stream means
// "walk the profile's program".
func runCore(cfg Config, stream workload.Stream) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res, err := simulate(SingleCore(cfg).Normalized(), stream)
	if err != nil {
		return Result{}, err
	}
	return res.Cores[0], nil
}

// MustRun is Run for static configurations.
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func accumulate(res *Result, c *core.Core, engine prefetch.Engine) {
	cs := c.Stats()
	res.Core = addCoreStats(res.Core, cs)
	res.Hier = addHierStats(res.Hier, c.Hierarchy().Stats())
	res.BTBMisses += engine.BTBMisses()
}

func addCoreStats(a, b core.Stats) core.Stats {
	a.Cycles += b.Cycles
	a.Instructions += b.Instructions
	a.FrontEndStallCycles += b.FrontEndStallCycles
	a.BackEndStallCycles += b.BackEndStallCycles
	a.FetchStallCycles += b.FetchStallCycles
	a.DecodeRedirects += b.DecodeRedirects
	a.ExecRedirects += b.ExecRedirects
	a.DirMispredicts += b.DirMispredicts
	a.RASMispredicts += b.RASMispredicts
	a.CondBranches += b.CondBranches
	a.Branches += b.Branches
	return a
}

func addHierStats(a, b uncore.Stats) uncore.Stats {
	a.DemandFetches += b.DemandFetches
	a.DemandL1IHits += b.DemandL1IHits
	a.DemandPrefBufHits += b.DemandPrefBufHits
	a.DemandInflight += b.DemandInflight
	a.DemandLLCHits += b.DemandLLCHits
	a.DemandMemFills += b.DemandMemFills
	a.PrefetchesIssued += b.PrefetchesIssued
	a.PrefetchesRedundant += b.PrefetchesRedundant
	a.PrefetchLLCHits += b.PrefetchLLCHits
	a.PrefetchMemFills += b.PrefetchMemFills
	a.PrefetchUsefulInflight += b.PrefetchUsefulInflight
	a.DataAccesses += b.DataAccesses
	a.DataL1DHits += b.DataL1DHits
	a.DataLLCHits += b.DataLLCHits
	a.DataMemFills += b.DataMemFills
	a.DataFillCycles += b.DataFillCycles
	a.DataFillSamples += b.DataFillSamples
	return a
}

// prefetchAccuracy computes Figure 10's metric: the fraction of issued
// prefetches later used by a demand fetch (from the buffer or in flight).
func prefetchAccuracy(acc uncore.Stats) float64 {
	if acc.PrefetchesIssued == 0 {
		return 0
	}
	useful := acc.DemandPrefBufHits + acc.PrefetchUsefulInflight
	return float64(useful) / float64(acc.PrefetchesIssued)
}

func buildEngine(ctx prefetch.Context, cfg Config) (prefetch.Engine, error) {
	switch cfg.Mechanism {
	case None:
		return prefetch.NewNone(ctx, cfg.BTBEntries), nil
	case FDIP:
		return prefetch.NewFDIP(ctx, cfg.BTBEntries), nil
	case RDIP:
		return prefetch.NewRDIP(ctx, cfg.BTBEntries), nil
	case Delta:
		return prefetch.NewDelta(ctx, cfg.BTBEntries), nil
	case Boomerang:
		return prefetch.NewBoomerang(ctx, cfg.BTBEntries), nil
	case Confluence:
		return prefetch.NewConfluence(ctx), nil
	case Ideal:
		return prefetch.NewIdeal(ctx), nil
	case Shotgun:
		sizes := cfg.ShotgunSizes
		if sizes == nil {
			s, err := btb.ShotgunSizesForBudget(cfg.BTBEntries)
			if err != nil {
				return nil, err
			}
			sizes = &s
		}
		sz := *sizes
		if cfg.RegionMode == prefetch.RegionNone {
			// "No bit vector": the two footprints' bits buy more
			// U-BTB entries at equal storage (Section 6.3).
			sz.UEntries = btb.GrowUEntries(sz.UEntries, sz.UEntries*2*cfg.Layout.Bits(), btb.UEntryBaseBits)
		}
		return prefetch.NewShotgun(ctx, prefetch.ShotgunConfig{
			Sizes:  sz,
			Layout: cfg.Layout,
			Mode:   cfg.RegionMode,
		}), nil
	}
	return nil, fmt.Errorf("sim: unknown mechanism %q", cfg.Mechanism)
}
