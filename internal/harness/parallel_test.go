package harness

import (
	"sync"
	"testing"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
)

// TestRunnerSingleFlight hammers one config from many goroutines: the
// single-flight cache must run it once and give every caller the same
// result.
func TestRunnerSingleFlight(t *testing.T) {
	r := NewRunnerWorkers(Scale{WarmupInstr: 60_000, MeasureInstr: 80_000, Samples: 1}, 4)
	cfg := sim.Config{Workload: "Nutch", Mechanism: sim.None}

	const callers = 16
	results := make([]sim.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(cfg)
		}(i)
	}
	wg.Wait()

	if len(r.cache) != 1 {
		t.Fatalf("cache has %d entries after %d concurrent identical Runs, want 1", len(r.cache), callers)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

// TestCacheKeyCollisions is the regression test for the seed runner's
// fragile fmt.Sprintf key: configs that run different simulations must
// produce different keys, and configs that are equivalent after
// normalization must produce equal keys (so the memo actually shares).
func TestCacheKeyCollisions(t *testing.T) {
	r := NewRunner(QuickScale())
	base := sim.Config{Workload: "Oracle", Mechanism: sim.Shotgun}

	distinct := []sim.Config{
		base,
		{Workload: "DB2", Mechanism: sim.Shotgun},
		{Workload: "Oracle", Mechanism: sim.Boomerang},
		{Workload: "Oracle", Mechanism: sim.Shotgun, BTBEntries: 4096},
		{Workload: "Oracle", Mechanism: sim.Shotgun, Layout: footprint.Layout32},
		{Workload: "Oracle", Mechanism: sim.Shotgun, RegionMode: prefetch.RegionEntire},
		{Workload: "Oracle", Mechanism: sim.Shotgun, SkipInstr: 123_456},
		{Workload: "Oracle", Mechanism: sim.Shotgun,
			ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 64, REntries: 512}},
		{Workload: "Oracle", Mechanism: sim.Shotgun,
			ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 1024, REntries: 512}},
	}
	seen := map[cacheKey]int{}
	for i, cfg := range distinct {
		k := keyOf(r.NormalizeScenario(sim.SingleCore(cfg)))
		if j, dup := seen[k]; dup {
			t.Errorf("configs %d and %d collide on key %+v", j, i, k)
		}
		seen[k] = i
	}

	// Equivalent-after-normalization pairs must share a key.
	equiv := [][2]sim.Config{
		{{Workload: "Oracle", Mechanism: sim.Shotgun},
			{Workload: "Oracle", Mechanism: sim.Shotgun, BTBEntries: 2048}},
		{{Workload: "Oracle", Mechanism: sim.Shotgun},
			{Workload: "Oracle", Mechanism: sim.Shotgun, Layout: footprint.Layout8}},
	}
	for i, pair := range equiv {
		a := keyOf(r.NormalizeScenario(sim.SingleCore(pair[0])))
		b := keyOf(r.NormalizeScenario(sim.SingleCore(pair[1])))
		if a != b {
			t.Errorf("equivalent pair %d maps to distinct keys:\n%+v\n%+v", i, a, b)
		}
	}

	// Scenario shape is part of the identity: the same config as a solo
	// core, duplicated onto two cores, or with a custom LLC must all be
	// distinct simulations.
	solo := r.NormalizeScenario(sim.SingleCore(base))
	duo := r.NormalizeScenario(sim.Scenario{Cores: []sim.Config{base, base}})
	bigLLC := r.NormalizeScenario(sim.Scenario{Cores: []sim.Config{base}, LLCSizeBytes: 4 << 20})
	if keyOf(solo) == keyOf(duo) || keyOf(solo) == keyOf(bigLLC) || keyOf(duo) == keyOf(bigLLC) {
		t.Error("scenario shapes collide on one key")
	}
	// ...while an explicitly spelled-out default LLC is the same
	// simulation as the derived one.
	explicit := r.NormalizeScenario(sim.Scenario{Cores: []sim.Config{base}, LLCSizeBytes: sim.DefaultLLCBytes(1)})
	if keyOf(solo) != keyOf(explicit) {
		t.Error("explicit default LLC size changed the key")
	}
}

// TestSeedShortCircuitsSimulation: a result seeded from outside (a
// dispatch cluster's job table) must be served by the memo verbatim,
// with no local simulation.
func TestSeedShortCircuitsSimulation(t *testing.T) {
	r := NewRunnerWorkers(QuickScale(), 1)
	cfg := sim.Config{Workload: "Nutch", Mechanism: sim.None}
	sc := r.NormalizeScenario(sim.SingleCore(cfg))
	fake := sim.ScenarioResult{Cores: []sim.Result{{Workload: "Nutch", Mechanism: sim.None}}}
	fake.Cores[0].Core.Instructions = 12345 // marker no real run produces at this scale
	r.Seed(sc, fake)
	got := r.RunScenario(sim.SingleCore(cfg))
	if got.Cores[0].Core.Instructions != 12345 {
		t.Fatalf("seeded result not served: instructions = %d", got.Cores[0].Core.Instructions)
	}
}
