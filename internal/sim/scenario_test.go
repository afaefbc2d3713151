package sim

import (
	"bytes"
	"testing"

	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
)

func tinyCfg(wl string, m Mechanism) Config {
	return Config{
		Workload: wl, Mechanism: m,
		WarmupInstr: 60_000, MeasureInstr: 80_000, Samples: 1,
	}
}

// TestLockstepMatchesSerialSingleCore: the lockstep oracle, driven with
// exactly one core and the default shared uncore, must reproduce Run —
// the one-core scenario on the event kernel — bit for bit, so any drift
// between the kernel and a per-cycle loop at N=1 (the golden corpus's
// most common shape) fails here, not in a golden diff.
func TestLockstepMatchesSerialSingleCore(t *testing.T) {
	for _, m := range []Mechanism{None, Shotgun, Confluence} {
		cfg := tinyCfg("Nutch", m)
		want := MustRun(cfg)
		got, err := runLockstep(SingleCore(cfg).Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cores) != 1 || got.Cores[0] != want {
			t.Fatalf("%s: lockstep single-core drifted from serial:\nlockstep: %+v\nserial:   %+v",
				m, got.Cores[0], want)
		}
	}
}

func TestRunScenarioSingleCoreEqualsRun(t *testing.T) {
	cfg := tinyCfg("Zeus", Shotgun)
	want := MustRun(cfg)
	got := MustRunScenario(SingleCore(cfg))
	if len(got.Cores) != 1 || got.Cores[0] != want {
		t.Fatalf("N=1 scenario differs from Run:\n%+v\n%+v", got.Cores[0], want)
	}
}

func TestScenarioDeterministic(t *testing.T) {
	sc := Scenario{Cores: []Config{
		tinyCfg("Nutch", Shotgun),
		tinyCfg("Nutch", FDIP),
	}}
	a := MustRunScenario(sc)
	b := MustRunScenario(sc)
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d differs between identical runs:\n%+v\n%+v", i, a.Cores[i], b.Cores[i])
		}
	}
}

// TestCoRunnersDecorrelated: two cores running the identical spec must
// not execute in lockstep — index-salted walk/data seeds give each its
// own request sequence, so their measured windows differ.
func TestCoRunnersDecorrelated(t *testing.T) {
	sc := Scenario{Cores: []Config{
		tinyCfg("Nutch", None),
		tinyCfg("Nutch", None),
	}}
	res := MustRunScenario(sc)
	if res.Cores[0].Core == res.Cores[1].Core {
		t.Fatal("identical co-runners produced identical core stats (seeds not salted)")
	}
}

func TestHeterogeneousScenarioRuns(t *testing.T) {
	sc := Scenario{Cores: []Config{
		tinyCfg("Oracle", Shotgun),
		tinyCfg("DB2", Boomerang),
		tinyCfg("Nutch", None),
	}}
	res := MustRunScenario(sc)
	if len(res.Cores) != 3 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	for i, r := range res.Cores {
		if r.Core.Instructions < 80_000 {
			t.Fatalf("core %d instructions = %d", i, r.Core.Instructions)
		}
		if r.Workload != sc.Cores[i].Workload || r.Mechanism != sc.Cores[i].Mechanism {
			t.Fatalf("core %d identity wrong: %+v", i, r)
		}
		if r.IPC() <= 0 || r.IPC() > 3 {
			t.Fatalf("core %d IPC = %v", i, r.IPC())
		}
	}
}

// TestInterferenceEmergent checks the paper's Figure 11 effect now
// arises mechanically: co-runners on the shared LLC/NoC slow the
// primary core down and inflate its L1-D miss fill latency, and
// over-prefetching co-runners (entire-region) hurt strictly more than
// polite ones (8-bit vectors). Quick scale — the trends need warmed
// caches to be stable.
func TestInterferenceEmergent(t *testing.T) {
	quickCfg := func() Config {
		return Config{Workload: "Oracle", Mechanism: Shotgun,
			WarmupInstr: 300_000, MeasureInstr: 400_000, Samples: 1}
	}
	contended := func(entire bool) Result {
		cores := []Config{quickCfg()}
		for i := 0; i < 3; i++ {
			co := quickCfg()
			if entire {
				co.RegionMode = prefetch.RegionEntire
				co.Layout = footprint.Layout32
			}
			cores = append(cores, co)
		}
		return MustRunScenario(Scenario{Cores: cores}).Cores[0]
	}

	solo := MustRun(quickCfg())
	polite := contended(false)
	storm := contended(true)

	if !(storm.AvgDataFillCycles() > polite.AvgDataFillCycles() &&
		polite.AvgDataFillCycles() > solo.AvgDataFillCycles()) {
		t.Fatalf("L1-D fill latency not ordered storm > polite > solo: %.1f, %.1f, %.1f",
			storm.AvgDataFillCycles(), polite.AvgDataFillCycles(), solo.AvgDataFillCycles())
	}
	if !(storm.IPC() < polite.IPC() && polite.IPC() < solo.IPC()) {
		t.Fatalf("IPC not ordered storm < polite < solo: %.3f, %.3f, %.3f",
			storm.IPC(), polite.IPC(), solo.IPC())
	}
}

// TestConfluenceCoRunnersChargeReservePerCore: each Confluence engine
// virtualizes its own history image, so a scenario with two Confluence
// cores gives up twice the per-share reserve — observable as a smaller
// shared LLC than the same scenario with polite co-runners.
func TestConfluenceCoRunnersChargeReservePerCore(t *testing.T) {
	res := MustRunScenario(Scenario{Cores: []Config{
		tinyCfg("Nutch", Confluence),
		tinyCfg("Nutch", Confluence),
	}})
	if len(res.Cores) != 2 || res.Cores[0].Core.Instructions == 0 {
		t.Fatalf("confluence duo failed: %+v", res)
	}
}

func TestScenarioValidate(t *testing.T) {
	good := []Scenario{
		SingleCore(Config{Workload: "Oracle", Mechanism: Shotgun}),
		{Cores: []Config{
			{Workload: "Oracle", Mechanism: Shotgun},
			{Workload: "DB2", Mechanism: None},
		}},
		{Cores: []Config{{Workload: "Nutch", Mechanism: None}}, LLCSizeBytes: 4 << 20},
	}
	for i, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Errorf("good scenario %d rejected: %v", i, err)
		}
	}
	tooMany := Scenario{}
	for i := 0; i <= MaxCores; i++ {
		tooMany.Cores = append(tooMany.Cores, Config{Workload: "Oracle", Mechanism: None})
	}
	bad := []Scenario{
		{},
		tooMany,
		{Cores: []Config{{Workload: "NoSuch", Mechanism: None}}},
		{Cores: []Config{{Workload: "Oracle", Mechanism: "warp"}}},
		{Cores: []Config{{Workload: "Oracle", Mechanism: None}}, LLCSizeBytes: -1},
		{Cores: []Config{{Workload: "Oracle", Mechanism: None}}, LLCSizeBytes: 4096},
		// Above the chip's 8MB NUCA: one HTTP-submittable scenario must
		// not be able to allocate an arbitrarily large cache.
		{Cores: []Config{{Workload: "Oracle", Mechanism: None}}, LLCSizeBytes: 1 << 40},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
		if _, err := RunScenario(sc); err == nil {
			t.Errorf("bad scenario %d ran", i)
		}
	}
}

func TestScenarioNormalizedLLCDerivation(t *testing.T) {
	for _, tc := range []struct{ cores, want int }{
		{1, 1 << 20}, {2, 2 << 20}, {8, 8 << 20}, {16, 8 << 20},
	} {
		if got := DefaultLLCBytes(tc.cores); got != tc.want {
			t.Errorf("DefaultLLCBytes(%d) = %d, want %d", tc.cores, got, tc.want)
		}
	}
	sc := Scenario{Cores: []Config{
		{Workload: "Oracle", Mechanism: None},
		{Workload: "Oracle", Mechanism: None},
	}}
	if n := sc.Normalized(); n.LLCSizeBytes != 2<<20 {
		t.Fatalf("normalized LLC = %d, want %d", n.LLCSizeBytes, 2<<20)
	}
	// Explicit sizes survive normalization.
	sc.LLCSizeBytes = 4 << 20
	if n := sc.Normalized(); n.LLCSizeBytes != 4<<20 {
		t.Fatalf("explicit LLC clobbered: %d", n.LLCSizeBytes)
	}
}

func TestCanonicalBytesStable(t *testing.T) {
	sc := Scenario{Cores: []Config{
		{Workload: "Oracle", Mechanism: Shotgun},
		{Workload: "DB2", Mechanism: None},
	}}
	a, b := sc.CanonicalBytes(), sc.CanonicalBytes()
	if !bytes.Equal(a, b) {
		t.Fatal("canonical encoding unstable")
	}
	// A scenario's core list is a multiset: swapping cores is the SAME
	// scenario (one simulation, one store record, cluster-wide dedup) —
	// RunScenario maps results back to each caller's order.
	swapped := Scenario{Cores: []Config{sc.Cores[1], sc.Cores[0]}}
	if !bytes.Equal(a, swapped.CanonicalBytes()) {
		t.Fatal("permuted cores changed the content identity")
	}
	// A genuinely different core list is a different identity.
	other := Scenario{Cores: []Config{sc.Cores[0], sc.Cores[0]}}
	if bytes.Equal(a, other.CanonicalBytes()) {
		t.Fatal("distinct scenarios collided")
	}
}

// TestNewAxesKeyStability: the BPU and Contexts axes are omitempty
// fields whose default spellings normalize to the zero value, so every
// scenario key minted before the axes existed stays byte-identical —
// the store's content addresses survive without a FormatVersion bump.
func TestNewAxesKeyStability(t *testing.T) {
	plain := Scenario{Cores: []Config{{Workload: "Oracle", Mechanism: Shotgun}}}
	a := plain.CanonicalBytes()
	for _, field := range []string{"BPU", "Contexts", "bpu", "contexts"} {
		if bytes.Contains(a, []byte(field)) {
			t.Fatalf("default scenario encodes %q: %s", field, a)
		}
	}
	// The explicit default spellings are the same identity.
	tage := Scenario{Cores: []Config{{Workload: "Oracle", Mechanism: Shotgun, BPU: "tage", Contexts: 1}}}
	if !bytes.Equal(a, tage.CanonicalBytes()) {
		t.Fatalf("explicit defaults changed the identity:\n%s\n%s", a, tage.CanonicalBytes())
	}
	// Non-default values are distinct identities, and distinct from each
	// other.
	clz := Scenario{Cores: []Config{{Workload: "Oracle", Mechanism: Shotgun, BPU: BPUCLZ}}}
	smt := Scenario{Cores: []Config{{Workload: "Oracle", Mechanism: Shotgun, Contexts: 2}}}
	if bytes.Equal(a, clz.CanonicalBytes()) || bytes.Equal(a, smt.CanonicalBytes()) ||
		bytes.Equal(clz.CanonicalBytes(), smt.CanonicalBytes()) {
		t.Fatal("new-axis scenarios collided with the default identity")
	}
}
