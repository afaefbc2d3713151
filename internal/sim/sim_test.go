package sim

import (
	"testing"

	"shotgun/internal/btb"
	"shotgun/internal/prefetch"
)

func quickCfg(wl string, m Mechanism) Config {
	return Config{
		Workload: wl, Mechanism: m,
		WarmupInstr: 150_000, MeasureInstr: 200_000, Samples: 1,
	}
}

func TestRunAllMechanisms(t *testing.T) {
	for _, m := range Mechanisms() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			t.Parallel()
			r, err := Run(quickCfg("Zeus", m))
			if err != nil {
				t.Fatal(err)
			}
			if r.Core.Instructions < 200_000 {
				t.Fatalf("instructions = %d", r.Core.Instructions)
			}
			if r.IPC() <= 0 || r.IPC() > 3 {
				t.Fatalf("IPC = %v", r.IPC())
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(quickCfg("NoSuch", None)); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestUnknownMechanism(t *testing.T) {
	if _, err := Run(quickCfg("Zeus", Mechanism("bogus"))); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	a := MustRun(quickCfg("Nutch", Boomerang))
	b := MustRun(quickCfg("Nutch", Boomerang))
	if a.Core != b.Core {
		t.Fatalf("results differ:\n%+v\n%+v", a.Core, b.Core)
	}
}

func TestSpeedupOrdering(t *testing.T) {
	base := MustRun(quickCfg("Zeus", None))
	ideal := MustRun(quickCfg("Zeus", Ideal))
	shotgun := MustRun(quickCfg("Zeus", Shotgun))
	if ideal.Speedup(base) <= 1 {
		t.Fatalf("ideal speedup %.3f <= 1", ideal.Speedup(base))
	}
	if shotgun.Speedup(base) <= 1 {
		t.Fatalf("shotgun speedup %.3f <= 1", shotgun.Speedup(base))
	}
	if shotgun.IPC() > ideal.IPC() {
		t.Fatalf("shotgun IPC %.3f beats ideal %.3f", shotgun.IPC(), ideal.IPC())
	}
}

func TestStallCoverageBounds(t *testing.T) {
	base := MustRun(quickCfg("Zeus", None))
	for _, m := range []Mechanism{Boomerang, Shotgun, Ideal} {
		r := MustRun(quickCfg("Zeus", m))
		c := r.StallCoverage(base)
		if c < 0 || c > 1 {
			t.Fatalf("%s coverage %v out of [0,1]", m, c)
		}
	}
	if base.StallCoverage(base) != 0 {
		t.Fatal("self-coverage must be zero")
	}
}

func TestShotgunSizeOverride(t *testing.T) {
	sizes := btb.Sizes{UEntries: 768, CEntries: 64, REntries: 256}
	cfg := quickCfg("Nutch", Shotgun)
	cfg.ShotgunSizes = &sizes
	r := MustRun(cfg)
	if r.Core.Instructions == 0 {
		t.Fatal("override run failed")
	}
}

func TestRegionModeVariants(t *testing.T) {
	for _, mode := range []prefetch.RegionMode{
		prefetch.RegionVector, prefetch.RegionNone,
		prefetch.RegionEntire, prefetch.RegionFiveBlocks,
	} {
		cfg := quickCfg("Nutch", Shotgun)
		cfg.RegionMode = mode
		r := MustRun(cfg)
		if r.Core.Instructions == 0 {
			t.Fatalf("mode %v failed", mode)
		}
	}
}

func TestConfluenceLLCReserveApplied(t *testing.T) {
	// Confluence must run with a smaller effective LLC; detectable via
	// the mechanism completing and the reserve constant being sane.
	if prefetch.ConfluenceLLCReserveBytes <= 0 {
		t.Fatal("no LLC reserve configured")
	}
	r := MustRun(quickCfg("Nutch", Confluence))
	if r.Core.Instructions == 0 {
		t.Fatal("confluence run failed")
	}
}

func TestBudgetSweepRuns(t *testing.T) {
	for _, budget := range []int{512, 8192} {
		for _, m := range []Mechanism{Boomerang, Shotgun} {
			cfg := quickCfg("Nutch", m)
			cfg.BTBEntries = budget
			r := MustRun(cfg)
			if r.Core.Instructions == 0 {
				t.Fatalf("budget %d %s failed", budget, m)
			}
		}
	}
}

func TestMetricsFinite(t *testing.T) {
	r := MustRun(quickCfg("Streaming", Shotgun))
	if r.BTBMPKI() < 0 || r.L1IMPKI() < 0 {
		t.Fatalf("negative MPKI: %v %v", r.BTBMPKI(), r.L1IMPKI())
	}
	if r.PrefetchAccuracy < 0 || r.PrefetchAccuracy > 1 {
		t.Fatalf("accuracy %v", r.PrefetchAccuracy)
	}
	if r.AvgDataFillCycles() <= 0 {
		t.Fatal("no data-fill samples")
	}
}

func TestNoVectorGrowsUBTB(t *testing.T) {
	n := btb.GrowUEntries(1536, 1536*2*8, btb.UEntryBaseBits) // 8-bit footprints
	if n <= 1536 {
		t.Fatalf("no-vector U-BTB not grown: %d", n)
	}
	if _, err := btb.NewConventional(n); err != nil {
		t.Fatalf("grown size %d not factorable: %v", n, err)
	}
}

func TestValidate(t *testing.T) {
	good := []Config{
		{Workload: "Oracle", Mechanism: Shotgun},
		{Workload: "DB2", Mechanism: None, BTBEntries: 4096},
		{Workload: "Nutch", Mechanism: Shotgun,
			ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 64, REntries: 512}},
		// REntries == 0 is the no-RIB ablation, not an error.
		{Workload: "Nutch", Mechanism: Shotgun,
			ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 64, REntries: 0}},
		{Workload: "Oracle", Mechanism: Delta},
		{Workload: "Oracle", Mechanism: Shotgun, BPU: "clz"},
		{Workload: "Oracle", Mechanism: Shotgun, BPU: "tage"},
		{Workload: "Oracle", Mechanism: Boomerang, Contexts: MaxContexts},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{Workload: "NoSuch", Mechanism: Shotgun},
		{Workload: "Oracle", Mechanism: "warp"},
		{Workload: "Oracle", Mechanism: Shotgun, BTBEntries: -8},
		{Workload: "Oracle", Mechanism: Shotgun, BTBEntries: 1000}, // no size mapping
		{Workload: "Oracle", Mechanism: None, Samples: -1},
		{Workload: "Oracle", Mechanism: Shotgun, RegionMode: 99},
		// Explicit sizes that would panic inside NewShotgun must be
		// rejected up front (the HTTP server trusts Validate).
		{Workload: "Oracle", Mechanism: Shotgun, ShotgunSizes: &btb.Sizes{UEntries: -5, CEntries: 64, REntries: 512}},
		{Workload: "Oracle", Mechanism: Shotgun, ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 0, REntries: 512}},
		{Workload: "Oracle", Mechanism: Shotgun, ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 64, REntries: 509}}, // unfactorable
		{Workload: "Oracle", Mechanism: Shotgun, BPU: "gshare"},
		{Workload: "Oracle", Mechanism: Shotgun, Contexts: -1},
		{Workload: "Oracle", Mechanism: Shotgun, Contexts: MaxContexts + 1},
		// Sampling is single-context stream mode; a multi-context run has
		// no functional-warming path per context.
		{Workload: "Oracle", Mechanism: Shotgun, Contexts: 2,
			Sampling: &Sampling{PeriodBlocks: 4096, UnitBlocks: 256}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d ran: %+v", i, cfg)
		}
	}
}
