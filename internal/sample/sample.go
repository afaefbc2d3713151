// Package sample implements SMARTS-style periodic sampling statistics
// (Wunderlich et al., ISCA'03): a long block stream is measured in short
// detailed units spaced a fixed period apart, the gaps fast-forwarded
// under functional warming, and the per-unit observations aggregated
// into a mean with a Student-t confidence interval — optionally
// escalating the unit count until a target relative half-width is hit.
//
// The package owns the sampling *schedule and statistics*; driving the
// simulator through the warm/detailed phases belongs to internal/sim
// (runSampled), which feeds per-unit observations back through Run's
// measure callback. Keeping the math here makes it testable against
// closed-form cases without spinning up a core model.
package sample

import (
	"fmt"
	"math"
)

// DefaultUnits is the unit count when a caller sets none: enough that
// the Student-t interval is meaningful, small enough for quick runs.
const DefaultUnits = 8

// DefaultMaxUnits caps adaptive escalation when a caller sets no bound.
const DefaultMaxUnits = 64

// MaxPeriodBlocks bounds one sampling period. Sampling parameters
// arrive from spec files and HTTP, so the total detailed+warmed work
// (MaxUnits × PeriodBlocks) must be bounded against hostile documents.
const MaxPeriodBlocks = 16 << 20

// MaxUnitsCap bounds the unit count from any source.
const MaxUnitsCap = 4096

// Params is the periodic-sampling schedule over a block stream: the
// period, warm-up and unit lengths in trace blocks plus the statistical
// stopping rule. It is the one schedule type: sim.Sampling is this
// type, and a sampled config's canonical encoding carries its field
// names in this order, so neither may change.
type Params struct {
	// PeriodBlocks is the sampling period P: one measured unit begins
	// every P trace blocks.
	PeriodBlocks uint64
	// WarmupBlocks is the detailed warm-up W run (timed, discarded)
	// before each measured unit, re-establishing the timing state —
	// in-flight fills, FTQ depth, runahead position — that functional
	// warming does not model.
	WarmupBlocks uint64
	// UnitBlocks is the measured detailed unit length U. The remaining
	// P−W−U blocks of each period are fast-forwarded under functional
	// warming.
	UnitBlocks uint64
	// FuncWarmBlocks bounds the functional-warming window: 0 (the
	// SMARTS-conservative default, normalized to the full P−W−U gap)
	// warms the whole gap; an explicit F below the gap warms only the F
	// blocks preceding the detailed warm-up and skips the rest of the
	// gap outright — the bounded warm-up of checkpoint-style samplers,
	// trading some cold-state risk for a much cheaper fast-forward.
	FuncWarmBlocks uint64
	// Units is the baseline number of measured units (default
	// DefaultUnits).
	Units int
	// TargetCI, when non-zero, turns on adaptive escalation: after
	// Units units, measurement continues until the IPC estimate's
	// relative 95% half-width is at or below this target (SMARTS uses
	// ±3%, i.e. 0.03) or MaxUnits is reached.
	TargetCI float64
	// MaxUnits caps adaptive escalation (default DefaultMaxUnits; only
	// meaningful with TargetCI).
	MaxUnits int
}

// gap returns the P−W−U blocks each period fast-forwards, and whether
// W + U fits inside P at all. The comparison cannot overflow, so a
// warm-up or unit near 2^64 never wraps into an apparent fit.
func (p Params) gap() (uint64, bool) {
	if p.WarmupBlocks > p.PeriodBlocks || p.UnitBlocks > p.PeriodBlocks-p.WarmupBlocks {
		return 0, false
	}
	return p.PeriodBlocks - p.WarmupBlocks - p.UnitBlocks, true
}

// WithDefaults returns p with zero fields resolved: the explicit form
// a normalized sim.Config carries.
func (p Params) WithDefaults() Params {
	if gap, ok := p.gap(); ok && p.FuncWarmBlocks == 0 {
		// "Warm the whole gap" spelled implicitly (0) or explicitly
		// (P−W−U) is one schedule; normalize to the explicit form so
		// both share one canonical identity.
		p.FuncWarmBlocks = gap
	}
	if p.Units == 0 {
		p.Units = DefaultUnits
	}
	if p.MaxUnits == 0 {
		// Default the cap, never clamp an explicit one: an explicit
		// MaxUnits below Units is a caller error Validate reports.
		p.MaxUnits = DefaultMaxUnits
		if p.MaxUnits < p.Units {
			p.MaxUnits = p.Units
		}
	}
	return p
}

// Validate rejects parameter sets that cannot schedule a measurement or
// that exceed the DoS bounds (sampling parameters arrive from specs and
// HTTP). W + U (+ F) ≤ P is checked without overflow.
func (p Params) Validate() error {
	if p.PeriodBlocks == 0 {
		return fmt.Errorf("sample: period must be positive")
	}
	if p.UnitBlocks == 0 {
		return fmt.Errorf("sample: unit must be positive")
	}
	gap, ok := p.gap()
	if !ok {
		return fmt.Errorf("sample: warmup (%d) + unit (%d) blocks exceed the period (%d)",
			p.WarmupBlocks, p.UnitBlocks, p.PeriodBlocks)
	}
	if p.FuncWarmBlocks > gap {
		return fmt.Errorf("sample: functional warm (%d) + warmup (%d) + unit (%d) blocks exceed the period (%d)",
			p.FuncWarmBlocks, p.WarmupBlocks, p.UnitBlocks, p.PeriodBlocks)
	}
	if p.PeriodBlocks > MaxPeriodBlocks {
		return fmt.Errorf("sample: period %d exceeds the %d cap", p.PeriodBlocks, MaxPeriodBlocks)
	}
	if p.Units < 0 || p.Units > MaxUnitsCap {
		return fmt.Errorf("sample: units %d out of range [0, %d]", p.Units, MaxUnitsCap)
	}
	if p.MaxUnits < 0 || p.MaxUnits > MaxUnitsCap {
		return fmt.Errorf("sample: max units %d out of range [0, %d]", p.MaxUnits, MaxUnitsCap)
	}
	// Compare the cap against the EFFECTIVE unit count: an implicit
	// Units still defaults to DefaultUnits, and an explicit cap below
	// that would fail after normalization — reject it here so raw and
	// normalized params agree on validity.
	units := p.Units
	if units == 0 {
		units = DefaultUnits
	}
	if p.MaxUnits > 0 && p.MaxUnits < units {
		return fmt.Errorf("sample: max units %d below units %d", p.MaxUnits, units)
	}
	if p.TargetCI < 0 || p.TargetCI >= 1 {
		return fmt.Errorf("sample: target CI %v out of range [0, 1)", p.TargetCI)
	}
	return nil
}

// Series accumulates per-unit observations of one metric.
type Series struct {
	n    int
	sum  float64
	sum2 float64
}

// Add records one observation.
func (s *Series) Add(x float64) {
	s.n++
	s.sum += x
	s.sum2 += x * x
}

// N returns the observation count.
func (s *Series) N() int { return s.n }

// Mean returns the sample mean (0 with no observations).
func (s *Series) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// variance returns the unbiased sample variance (0 below two
// observations). The accumulator form can go negative by rounding when
// observations are identical; clamp at zero.
func (s *Series) variance() float64 {
	if s.n < 2 {
		return 0
	}
	v := (s.sum2 - s.sum*s.sum/float64(s.n)) / float64(s.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// Estimate returns the series' mean ± 95% Student-t half-width.
func (s *Series) Estimate() Estimate {
	e := Estimate{Mean: s.Mean(), Units: s.n}
	if s.n >= 2 {
		e.HalfWidth = tQuantile95(s.n-1) * math.Sqrt(s.variance()/float64(s.n))
	}
	return e
}

// Estimate is a sampled metric: mean ± 95% confidence half-width over
// Units measured units.
type Estimate struct {
	Mean      float64
	HalfWidth float64
	Units     int
}

// RelHalfWidth returns the half-width relative to the mean's magnitude
// (+Inf when the mean is zero with a non-zero half-width; 0 when both
// are zero, i.e. a perfectly stable series).
func (e Estimate) RelHalfWidth() float64 {
	if e.Mean == 0 {
		if e.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return e.HalfWidth / math.Abs(e.Mean)
}

// Contains reports whether x lies within the confidence interval.
func (e Estimate) Contains(x float64) bool {
	return math.Abs(x-e.Mean) <= e.HalfWidth
}

// String renders "mean ± half-width (95% CI, n units)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f (95%% CI, n=%d)", e.Mean, e.HalfWidth, e.Units)
}

// t95 holds the two-sided 95% Student-t quantiles (t_{0.975,df}) for
// df 1..30; larger dfs interpolate the standard abridged table.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile95 returns t_{0.975,df}: the standard table through df 30,
// the conventional abridged rows at 40/60/120, 1.96 in the limit.
func tQuantile95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(t95):
		return t95[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	}
	return 1.960
}

// Run drives the adaptive sampling loop: measure is called once per
// unit (it should execute one full period — functional warming,
// detailed warm-up, measured unit — and return the unit's IPC), the
// observations accumulate, and the loop stops after p.Units units
// unless TargetCI asks for escalation, in which case it continues
// until the target relative half-width or MaxUnits. Returns the IPC
// estimate. Params must have been validated.
func Run(p Params, measure func(unit int) float64) Estimate {
	p = p.WithDefaults()
	var s Series
	for unit := 0; unit < p.MaxUnits; unit++ {
		s.Add(measure(unit))
		if unit+1 < p.Units {
			continue
		}
		if p.TargetCI == 0 {
			break
		}
		if est := s.Estimate(); est.RelHalfWidth() <= p.TargetCI {
			break
		}
	}
	return s.Estimate()
}
