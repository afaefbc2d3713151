package sim

import (
	"bytes"
	"testing"
	"time"
)

// sampledCfg is the quick sampled counterpart of quickCfg: the same
// workload/mechanism with a periodic-sampling schedule whose total
// stream traversal is comparable to the exact run's measurement.
func sampledCfg(wl string, m Mechanism) Config {
	cfg := quickCfg(wl, m)
	cfg.Sampling = &Sampling{
		PeriodBlocks: 8192,
		WarmupBlocks: 512,
		UnitBlocks:   1024,
		Units:        12,
	}
	return cfg
}

func TestSampledRunReportsCI(t *testing.T) {
	r := MustRun(sampledCfg("Zeus", Shotgun))
	if r.Sampled == nil {
		t.Fatal("sampled run returned no summary")
	}
	s := r.Sampled
	if s.Units != 12 {
		t.Fatalf("units = %d, want 12", s.Units)
	}
	if s.IPC.Mean <= 0 || s.IPC.Mean > 3 {
		t.Fatalf("sampled IPC mean = %v", s.IPC.Mean)
	}
	if s.IPC.HalfWidth <= 0 {
		t.Fatalf("sampled IPC half-width = %v (want > 0 for heterogeneous units)", s.IPC.HalfWidth)
	}
	if s.IPC.Units != s.Units || s.L1IMPKI.Units != s.Units || s.BTBMPKI.Units != s.Units {
		t.Fatalf("estimate unit counts %d/%d/%d do not match %d",
			s.IPC.Units, s.L1IMPKI.Units, s.BTBMPKI.Units, s.Units)
	}
	if s.WarmInstr == 0 || s.MeasuredInstr == 0 {
		t.Fatalf("warm=%d measured=%d instructions", s.WarmInstr, s.MeasuredInstr)
	}
	if cov := s.Coverage(); cov <= 0 || cov >= 0.5 {
		t.Fatalf("coverage = %v, want a small detailed fraction", cov)
	}
	if s.SkimmedInstr != 0 {
		t.Fatalf("full-gap warming skipped %d instructions", s.SkimmedInstr)
	}
	// The aggregate counters hold the measured units only, so the
	// whole-run IPC (ratio of sums) and the per-unit mean (mean of
	// ratios) describe the same units; they differ by unit-duration
	// weighting but must stay in the same neighbourhood.
	if ipc := r.IPC(); relErr(ipc, s.IPC.Mean) > 0.25 {
		t.Fatalf("aggregate IPC %v far from per-unit mean %v", ipc, s.IPC.Mean)
	}
}

func TestSampledDeterministic(t *testing.T) {
	a := MustRun(sampledCfg("Nutch", Boomerang))
	b := MustRun(sampledCfg("Nutch", Boomerang))
	if a.Core != b.Core || *a.Sampled != *b.Sampled {
		t.Fatalf("sampled results differ:\n%+v\n%+v", a, b)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestSampledMatchesExactWithinCI is the accuracy keystone: the sampled
// estimate must land within its own reported 95% confidence interval of
// the exact run's IPC (with the half-width doubled as slack for the
// systematic warm-up bias a finite W cannot fully remove), while
// simulating only a fraction of the stream in detail.
func TestSampledMatchesExactWithinCI(t *testing.T) {
	cases := []struct {
		name     string
		m        Mechanism
		funcWarm uint64 // 0 = full-gap SMARTS warming
	}{
		{"none", None, 0},
		{"shotgun", Shotgun, 0},
		{"shotgun-bounded-warm", Shotgun, 8192},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			exactCfg := quickCfg("Zeus", tc.m)
			exactCfg.WarmupInstr = 300_000
			exactCfg.MeasureInstr = 600_000
			exact := MustRun(exactCfg)

			cfg := exactCfg
			cfg.Sampling = &Sampling{
				PeriodBlocks:   16384,
				WarmupBlocks:   1024,
				UnitBlocks:     1024,
				FuncWarmBlocks: tc.funcWarm,
				Units:          16,
			}
			sampled := MustRun(cfg)
			s := sampled.Sampled
			if s == nil {
				t.Fatal("no sampled summary")
			}
			t.Logf("%s: exact IPC %.4f, sampled %v (coverage %.3f, skipped %d)",
				tc.name, exact.IPC(), s.IPC, s.Coverage(), s.SkimmedInstr)
			diff := relErr(s.IPC.Mean, exact.IPC())
			slack := 2 * s.IPC.HalfWidth
			if d := s.IPC.Mean - exact.IPC(); d > slack || -d > slack {
				t.Fatalf("sampled IPC %v outside 2x CI of exact %v (rel err %.3f)",
					s.IPC, exact.IPC(), diff)
			}
			if diff > 0.10 {
				t.Fatalf("sampled IPC %v rel err %.3f vs exact %v exceeds 10%%",
					s.IPC.Mean, diff, exact.IPC())
			}
		})
	}
}

// TestSampledFasterThanExact checks the point of the mode: traversing
// at least the exact run's stream span, bounded-window sampling must be
// well under the exact run's wall clock (the 10x acceptance gate lives
// in BenchmarkSampledThroughput over a long trace; this in-tree smoke
// uses 2x so short quick runs stay robust under timer noise).
func TestSampledFasterThanExact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	cfg := quickCfg("Zeus", Shotgun)
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 1_500_000
	start := time.Now()
	exact := MustRun(cfg)
	exactDur := time.Since(start)

	scfg := cfg
	scfg.Sampling = &Sampling{
		PeriodBlocks:   65536,
		WarmupBlocks:   256,
		UnitBlocks:     256,
		FuncWarmBlocks: 2048,
		Units:          8,
	}
	start = time.Now()
	sampled := MustRun(scfg)
	sampledDur := time.Since(start)

	total := sampled.Sampled.TotalInstr()
	if total < exact.Core.Instructions {
		t.Fatalf("sampled traversal %d below exact measurement %d", total, exact.Core.Instructions)
	}
	t.Logf("exact %v, sampled %v (%.1fx) over >= %d instructions",
		exactDur, sampledDur, float64(exactDur)/float64(sampledDur), total)
	if sampledDur*2 > exactDur {
		t.Fatalf("sampled run %v not at least 2x faster than exact %v", sampledDur, exactDur)
	}
}

func TestSampledAdaptiveEscalation(t *testing.T) {
	cfg := sampledCfg("Zeus", None)
	cfg.Sampling.Units = 4
	cfg.Sampling.MaxUnits = 64
	cfg.Sampling.TargetCI = 0.01
	r := MustRun(cfg)
	if r.Sampled.Units < 4 {
		t.Fatalf("units = %d, below the baseline", r.Sampled.Units)
	}
	if r.Sampled.Units > 64 {
		t.Fatalf("units = %d, above the cap", r.Sampled.Units)
	}
	// Escalation stops either at the target or at the cap; whichever,
	// the reported estimate must reflect every measured unit.
	if r.Sampled.IPC.Units != r.Sampled.Units {
		t.Fatalf("estimate over %d units, summary says %d", r.Sampled.IPC.Units, r.Sampled.Units)
	}
	if r.Sampled.Units < 64 && r.Sampled.IPC.RelHalfWidth() > 0.01 {
		t.Fatalf("stopped at %d units with rel CI %.4f above target", r.Sampled.Units, r.Sampled.IPC.RelHalfWidth())
	}
}

func TestSamplingValidation(t *testing.T) {
	bad := []Sampling{
		{PeriodBlocks: 0, UnitBlocks: 10},
		{PeriodBlocks: 100, UnitBlocks: 0},
		{PeriodBlocks: 100, WarmupBlocks: 90, UnitBlocks: 20},
		{PeriodBlocks: 1 << 60, UnitBlocks: 10},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: -1},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: 1 << 20},
		{PeriodBlocks: 100, UnitBlocks: 10, MaxUnits: 1 << 20},
		{PeriodBlocks: 100, UnitBlocks: 10, Units: 8, MaxUnits: 4},
		{PeriodBlocks: 100, UnitBlocks: 10, TargetCI: -0.5},
		{PeriodBlocks: 100, UnitBlocks: 10, TargetCI: 1.5},
		// Block counts whose sum wraps around 2^64 into an apparent fit.
		{PeriodBlocks: 100, WarmupBlocks: 1 << 63, UnitBlocks: 1 << 63},
		{PeriodBlocks: 100, WarmupBlocks: ^uint64(0), UnitBlocks: 1},
	}
	for i, s := range bad {
		s := s
		cfg := quickCfg("Zeus", None)
		cfg.Sampling = &s
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid sampling %+v accepted", i, s)
		}
	}
	cfg := quickCfg("Zeus", None)
	cfg.Sampling = &Sampling{PeriodBlocks: 4096, WarmupBlocks: 64, UnitBlocks: 64, TargetCI: 0.03}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid sampling rejected: %v", err)
	}
}

func TestSamplingScenarioRestrictions(t *testing.T) {
	cfg := sampledCfg("Zeus", None)
	if err := SingleCore(cfg).Validate(); err != nil {
		t.Fatalf("single-core sampled scenario rejected: %v", err)
	}
	multi := Scenario{Cores: []Config{cfg, quickCfg("Zeus", None)}}
	if err := multi.Validate(); err == nil {
		t.Fatal("multi-core sampled scenario accepted")
	}
	odd := SingleCore(cfg)
	odd.LLCSizeBytes = 2 << 20
	if err := odd.Validate(); err == nil {
		t.Fatal("sampled scenario with non-default LLC accepted")
	}
}

// TestSamplingChangesIdentityOnlyWhenOn pins the compatibility
// contract: a nil Sampling leaves the canonical encoding — and
// therefore every memo key, store hash, and dispatch lease of existing
// exact runs — byte-identical to a build that never heard of sampling,
// while a non-nil block must produce a distinct identity.
func TestSamplingChangesIdentityOnlyWhenOn(t *testing.T) {
	exact := SingleCore(quickCfg("Zeus", Shotgun))
	if b := exact.CanonicalBytes(); bytes.Contains(b, []byte("Sampling")) {
		t.Fatalf("exact-run canonical bytes mention Sampling: %s", b)
	}
	sampled := SingleCore(sampledCfg("Zeus", Shotgun))
	if bytes.Equal(exact.CanonicalBytes(), sampled.CanonicalBytes()) {
		t.Fatal("sampled scenario shares the exact scenario's identity")
	}
	a := SingleCore(sampledCfg("Zeus", Shotgun))
	b := SingleCore(sampledCfg("Zeus", Shotgun))
	b.Cores[0].Sampling.UnitBlocks++
	if bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes()) {
		t.Fatal("distinct sampling blocks share one identity")
	}
	if compareSampling(a.Cores[0].Sampling, b.Cores[0].Sampling) == 0 {
		t.Fatal("compareSampling cannot distinguish distinct blocks")
	}
	if compareSampling(nil, a.Cores[0].Sampling) != -1 || compareSampling(a.Cores[0].Sampling, nil) != 1 {
		t.Fatal("nil sampling must rank before non-nil")
	}
}

// TestSampledNormalizedExplicit checks defaults materialize in the
// canonical form without mutating the caller's struct.
func TestSampledNormalizedExplicit(t *testing.T) {
	cfg := quickCfg("Zeus", None)
	cfg.Sampling = &Sampling{PeriodBlocks: 4096, UnitBlocks: 64}
	n := cfg.Normalized()
	if n.Sampling.Units == 0 || n.Sampling.MaxUnits == 0 {
		t.Fatalf("normalized sampling left defaults implicit: %+v", *n.Sampling)
	}
	if cfg.Sampling.Units != 0 {
		t.Fatalf("Normalized mutated the caller's sampling block: %+v", *cfg.Sampling)
	}
}
