package sample

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	good := []Params{
		{PeriodBlocks: 100, UnitBlocks: 10},
		{PeriodBlocks: 100, WarmupBlocks: 50, UnitBlocks: 50},
		{PeriodBlocks: 100, WarmupBlocks: 10, UnitBlocks: 10, FuncWarmBlocks: 80},
		{PeriodBlocks: MaxPeriodBlocks, UnitBlocks: 1},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: MaxUnitsCap, MaxUnits: MaxUnitsCap},
		{PeriodBlocks: 100, UnitBlocks: 10, TargetCI: 0.03},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
	bad := []Params{
		{},
		{PeriodBlocks: 100},
		{UnitBlocks: 10},
		{PeriodBlocks: 100, WarmupBlocks: 95, UnitBlocks: 10},
		{PeriodBlocks: 100, WarmupBlocks: 10, UnitBlocks: 10, FuncWarmBlocks: 81},
		{PeriodBlocks: MaxPeriodBlocks + 1, UnitBlocks: 1},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: -1},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: MaxUnitsCap + 1},
		{PeriodBlocks: 100, UnitBlocks: 10, MaxUnits: -1},
		{PeriodBlocks: 100, UnitBlocks: 10, MaxUnits: MaxUnitsCap + 1},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: 8, MaxUnits: 4},
		{PeriodBlocks: 100, UnitBlocks: 10, TargetCI: -0.01},
		{PeriodBlocks: 100, UnitBlocks: 10, TargetCI: 1},
		// W + U wraps around 2^64 to 0 and F + W + U to P: both must
		// still read as exceeding the period.
		{PeriodBlocks: 100, WarmupBlocks: 1 << 63, UnitBlocks: 1 << 63},
		{PeriodBlocks: 100, WarmupBlocks: ^uint64(0), UnitBlocks: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, p)
		}
	}
}

func TestSeriesMoments(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.N() != 0 {
		t.Fatalf("empty series mean=%v n=%d", s.Mean(), s.N())
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Known data set: sample variance 32/7.
	if got := s.variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, 32.0/7)
	}
	e := s.Estimate()
	// t_{0.975,7} = 2.365; half-width = t * sqrt(s^2/n).
	want := 2.365 * math.Sqrt(32.0/7/8)
	if math.Abs(e.HalfWidth-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", e.HalfWidth, want)
	}
	if e.Units != 8 || e.Mean != 5 {
		t.Fatalf("estimate = %+v", e)
	}
}

func TestSeriesDegenerate(t *testing.T) {
	var one Series
	one.Add(3)
	e := one.Estimate()
	if e.Mean != 3 || e.HalfWidth != 0 || e.Units != 1 {
		t.Fatalf("single-observation estimate = %+v", e)
	}
	var flat Series
	for i := 0; i < 10; i++ {
		flat.Add(1.25)
	}
	if hw := flat.Estimate().HalfWidth; hw != 0 {
		t.Fatalf("constant series half-width = %v", hw)
	}
}

func TestEstimateRelHalfWidth(t *testing.T) {
	if got := (Estimate{Mean: 2, HalfWidth: 0.1}).RelHalfWidth(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("rel half-width = %v", got)
	}
	if got := (Estimate{Mean: -2, HalfWidth: 0.1}).RelHalfWidth(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("negative-mean rel half-width = %v", got)
	}
	if got := (Estimate{}).RelHalfWidth(); got != 0 {
		t.Fatalf("zero estimate rel half-width = %v", got)
	}
	if got := (Estimate{HalfWidth: 1}).RelHalfWidth(); !math.IsInf(got, 1) {
		t.Fatalf("zero-mean rel half-width = %v", got)
	}
}

func TestEstimateContains(t *testing.T) {
	e := Estimate{Mean: 1.5, HalfWidth: 0.2}
	for _, x := range []float64{1.3, 1.5, 1.7} {
		if !e.Contains(x) {
			t.Errorf("%v not contained in %v", x, e)
		}
	}
	for _, x := range []float64{1.29, 1.71} {
		if e.Contains(x) {
			t.Errorf("%v contained in %v", x, e)
		}
	}
}

func TestEstimateString(t *testing.T) {
	got := Estimate{Mean: 1.2345, HalfWidth: 0.0321, Units: 9}.String()
	want := "1.2345 ± 0.0321 (95% CI, n=9)"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTQuantile(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {7, 2.365}, {30, 2.042},
		{31, 2.021}, {40, 2.021}, {41, 2.000}, {60, 2.000},
		{61, 1.980}, {120, 1.980}, {121, 1.960}, {10000, 1.960},
	}
	for _, c := range cases {
		if got := tQuantile95(c.df); got != c.want {
			t.Errorf("t(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(tQuantile95(0), 1) {
		t.Error("t(0) must be +Inf (no confidence from zero df)")
	}
	// The table must be monotonically non-increasing in df.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		q := tQuantile95(df)
		if q > prev {
			t.Fatalf("t(%d)=%v > t(%d)=%v", df, q, df-1, prev)
		}
		prev = q
	}
}

func TestRunFixedUnits(t *testing.T) {
	p := Params{PeriodBlocks: 100, UnitBlocks: 10, Units: 5}
	calls := 0
	e := Run(p, func(unit int) float64 {
		if unit != calls {
			t.Fatalf("unit %d out of order (call %d)", unit, calls)
		}
		calls++
		return 2.0
	})
	if calls != 5 {
		t.Fatalf("measure called %d times, want 5 (no escalation without a target)", calls)
	}
	if e.Mean != 2 || e.Units != 5 || e.HalfWidth != 0 {
		t.Fatalf("estimate = %+v", e)
	}
}

func TestRunAdaptiveStopsAtTarget(t *testing.T) {
	// High-variance first units, then perfectly stable: the loop must
	// escalate past Units and stop once the CI tightens under target.
	p := Params{PeriodBlocks: 100, UnitBlocks: 10, Units: 4, MaxUnits: 400, TargetCI: 0.05}
	calls := 0
	e := Run(p, func(int) float64 {
		calls++
		if calls%2 == 0 {
			return 1.2
		}
		return 0.8
	})
	if calls <= 4 {
		t.Fatalf("no escalation: %d calls", calls)
	}
	if calls >= 400 {
		t.Fatalf("escalation never converged: %d calls", calls)
	}
	if e.RelHalfWidth() > 0.05 {
		t.Fatalf("stopped above target: %+v (rel %v)", e, e.RelHalfWidth())
	}
}

func TestRunAdaptiveHitsCap(t *testing.T) {
	// Alternating wildly: the CI never reaches 1e-6, so the cap rules.
	p := Params{PeriodBlocks: 100, UnitBlocks: 10, Units: 2, MaxUnits: 9, TargetCI: 1e-6}
	calls := 0
	x := 0.0
	e := Run(p, func(int) float64 {
		calls++
		x += 1
		return x
	})
	if calls != 9 {
		t.Fatalf("measure called %d times, want the 9-unit cap", calls)
	}
	if e.Units != 9 || math.Abs(e.Mean-5) > 1e-12 {
		t.Fatalf("estimate = %+v", e)
	}
}

func TestRunDefaults(t *testing.T) {
	calls := 0
	Run(Params{PeriodBlocks: 100, UnitBlocks: 10}, func(int) float64 {
		calls++
		return 1
	})
	if calls != DefaultUnits {
		t.Fatalf("measure called %d times, want DefaultUnits=%d", calls, DefaultUnits)
	}
}

func TestWithDefaultsKeepsLargeUnits(t *testing.T) {
	p := Params{PeriodBlocks: 100, UnitBlocks: 10, Units: 100}.WithDefaults()
	if p.MaxUnits < p.Units {
		t.Fatalf("defaulted MaxUnits %d below Units %d", p.MaxUnits, p.Units)
	}
	q := Params{PeriodBlocks: 100, UnitBlocks: 10, Units: 8, MaxUnits: 4}.WithDefaults()
	if q.MaxUnits != 4 {
		t.Fatalf("explicit MaxUnits clamped: %+v", q)
	}
}
