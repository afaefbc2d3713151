// This file is the sampled execution mode: instead of one long detailed
// warmup+measurement schedule, the run is divided into periods of P
// trace blocks; each period fast-forwards P−W−U blocks under functional
// warming (caches, BTBs, branch predictor and prefetcher metadata stay
// trained through core.WarmBlocks, but no cycles are simulated), runs a
// detailed warm-up of W blocks to re-establish timing state, then
// measures a detailed unit of U blocks. Per-unit IPC/MPKI observations
// aggregate into mean ± 95% confidence intervals (internal/sample), so
// a billion-instruction trace costs detailed simulation only for the
// measured slivers — the SMARTS recipe (Wunderlich et al., ISCA'03).

package sim

import (
	"shotgun/internal/core"
	"shotgun/internal/prefetch"
	"shotgun/internal/sample"
)

// Sampling configures the sampled execution mode: the schedule type
// of internal/sample. A nil Sampling on a Config means exact execution;
// non-nil switches Run/RunStream to periodic sampling and makes
// WarmupInstr/MeasureInstr/SkipInstr/Samples irrelevant (the sampling
// schedule replaces them, though they remain part of the canonical
// identity like every other field).
type Sampling = sample.Params

// compareSampling extends compareConfigs' frozen total order: nil
// (exact mode) ranks before any sampled config, then field-by-field.
func compareSampling(a, b *Sampling) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	for _, p := range [][2]uint64{
		{a.PeriodBlocks, b.PeriodBlocks},
		{a.WarmupBlocks, b.WarmupBlocks},
		{a.UnitBlocks, b.UnitBlocks},
		{a.FuncWarmBlocks, b.FuncWarmBlocks},
		{uint64(a.Units), uint64(b.Units)},
		{uint64(a.MaxUnits), uint64(b.MaxUnits)},
	} {
		if p[0] != p[1] {
			if p[0] < p[1] {
				return -1
			}
			return 1
		}
	}
	switch {
	case a.TargetCI < b.TargetCI:
		return -1
	case a.TargetCI > b.TargetCI:
		return 1
	}
	return 0
}

// SampledSummary is the statistical outcome of a sampled run, attached
// to the Result alongside the aggregated (measured-units-only) raw
// counters.
type SampledSummary struct {
	// Units is the number of measured detailed units.
	Units int
	// SkimmedInstr counts instructions fast-forwarded with no warming
	// (bounded-window mode); WarmInstr counts instructions
	// fast-forwarded under functional warming; DetailInstr counts
	// instructions simulated in detail (warm-up + measured);
	// MeasuredInstr is the measured subset.
	SkimmedInstr  uint64
	WarmInstr     uint64
	DetailInstr   uint64
	MeasuredInstr uint64
	// IPC, L1IMPKI and BTBMPKI are the per-unit estimates: mean ± 95%
	// Student-t half-width.
	IPC     sample.Estimate
	L1IMPKI sample.Estimate
	BTBMPKI sample.Estimate
}

// Coverage returns the fraction of the traversed stream simulated in
// detail — the knob SMARTS trades against confidence width.
func (s SampledSummary) Coverage() float64 {
	total := s.SkimmedInstr + s.WarmInstr + s.DetailInstr
	if total == 0 {
		return 0
	}
	return float64(s.DetailInstr) / float64(total)
}

// TotalInstr returns every instruction the sampled run traversed, in
// any mode — the span an exact run would have simulated in detail.
func (s SampledSummary) TotalInstr() uint64 {
	return s.SkimmedInstr + s.WarmInstr + s.DetailInstr
}

// runSampled executes the periodic-sampling schedule on a core built by
// buildStates, with Core.RunBlocks as its detailed-unit driver. The
// Result's raw counters aggregate the measured units only (so
// IPC()/MPKI() read as usual), and Sampled carries the per-unit
// statistics.
func runSampled(cfg Config, c *core.Core, engine prefetch.Engine) Result {
	p := *cfg.Sampling
	res := Result{Workload: cfg.Workload, Mechanism: cfg.Mechanism}
	sum := &SampledSummary{}
	var l1i, btbm sample.Series
	gap := p.PeriodBlocks - p.WarmupBlocks - p.UnitBlocks
	warm := p.FuncWarmBlocks
	if warm > gap {
		warm = gap
	}
	skim := gap - warm

	est := sample.Run(p, func(int) float64 {
		// Fast-forward across the period gap: drain the detailed
		// front-end state, skip the distant part (bounded-window mode
		// only), functionally warm the window before the unit.
		c.BeginWarm()
		sum.SkimmedInstr += c.SkimBlocks(skim)
		sum.WarmInstr += c.WarmBlocks(warm)

		// Detailed warm-up (timed, discarded).
		n0 := c.Instructions()
		c.RunBlocks(p.WarmupBlocks)
		sum.DetailInstr += c.Instructions() - n0

		// Measured unit.
		c.ResetStats()
		c.RunBlocks(p.UnitBlocks)
		var u Result
		accumulate(&u, c, engine)
		sum.DetailInstr += u.Core.Instructions
		sum.MeasuredInstr += u.Core.Instructions

		res.Core = addCoreStats(res.Core, u.Core)
		res.Hier = addHierStats(res.Hier, u.Hier)
		res.BTBMisses += u.BTBMisses
		l1i.Add(u.L1IMPKI())
		btbm.Add(u.BTBMPKI())
		return u.IPC()
	})

	sum.Units = est.Units
	sum.IPC = est
	sum.L1IMPKI = l1i.Estimate()
	sum.BTBMPKI = btbm.Estimate()
	res.Sampled = sum
	res.PrefetchAccuracy = prefetchAccuracy(res.Hier)
	return res
}
