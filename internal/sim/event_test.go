package sim

import (
	"fmt"
	"testing"

	"shotgun/internal/footprint"
	"shotgun/internal/prefetch"
)

// evtCfg keeps the engine-equality matrix fast while still crossing
// warmup and measurement boundaries on every core.
func evtCfg(wl string, m Mechanism) Config {
	return Config{
		Workload: wl, Mechanism: m,
		WarmupInstr: 40_000, MeasureInstr: 50_000, Samples: 1,
	}
}

// TestEventKernelMatchesLockstep is the tentpole keystone: the
// event-driven kernel must reproduce the lockstep engine bit for bit —
// same stall counters, same hierarchy stats, same derived metrics — at
// every core count and for every mechanism. Any divergence means a
// skipped cycle was not actually idle (or idle accounting drifted) and
// fails here, not in a golden diff.
func TestEventKernelMatchesLockstep(t *testing.T) {
	mechs := Mechanisms() // all 8
	wls := []string{"Oracle", "Nutch", "DB2", "Zeus", "Apache", "Streaming", "Oracle", "Nutch"}

	var cases []Scenario
	var names []string
	// N=1 and N=2: every mechanism drives its own scenario (paired with
	// a pressure-generating None co-runner at N=2).
	for _, m := range mechs {
		cases = append(cases, Scenario{Cores: []Config{evtCfg("Oracle", m)}})
		names = append(names, fmt.Sprintf("n1_%s", m))
		cases = append(cases, Scenario{Cores: []Config{
			evtCfg("Oracle", m),
			evtCfg("Nutch", None),
		}})
		names = append(names, fmt.Sprintf("n2_%s", m))
	}
	// N=8: one heterogeneous mix seats all 8 mechanisms on one mesh.
	var eight []Config
	for i, m := range mechs {
		eight = append(eight, evtCfg(wls[i%len(wls)], m))
	}
	cases = append(cases, Scenario{Cores: eight})
	names = append(names, "n8_all_mechanisms")
	// The new axes: the CLZ-TAGE predictor variant and the multi-context
	// front-end, each at 1, 2 and 8 cores — the per-context stall
	// deadlines (runStallUntil, headReadyAt, fetchBusyUntil) are exactly
	// the flip points the event kernel must include to stay bit-equal.
	clz := func(wl string, m Mechanism) Config { c := evtCfg(wl, m); c.BPU = BPUCLZ; return c }
	smt := func(wl string, m Mechanism, n int) Config { c := evtCfg(wl, m); c.Contexts = n; return c }
	cases = append(cases,
		Scenario{Cores: []Config{clz("Oracle", Shotgun)}},
		Scenario{Cores: []Config{clz("Oracle", Boomerang), evtCfg("Nutch", None)}},
		Scenario{Cores: []Config{
			clz("Oracle", Shotgun), clz("Nutch", Boomerang), clz("DB2", FDIP), clz("Zeus", Delta),
			clz("Apache", Confluence), clz("Streaming", RDIP), clz("Oracle", None), clz("Nutch", Ideal),
		}},
		Scenario{Cores: []Config{smt("Oracle", Shotgun, 2)}},
		Scenario{Cores: []Config{smt("Oracle", Boomerang, 4), smt("Nutch", Shotgun, 2)}},
		Scenario{Cores: []Config{
			smt("Oracle", Shotgun, 2), smt("Nutch", Boomerang, 4), smt("DB2", Delta, 2), smt("Zeus", FDIP, 8),
			evtCfg("Apache", Confluence), smt("Streaming", RDIP, 2), smt("Oracle", None, 2), smt("Nutch", Ideal, 2),
		}},
	)
	names = append(names, "n1_clz", "n2_clz", "n8_clz_all_mechanisms",
		"n1_smt2", "n2_smt_mixed", "n8_smt_all_mechanisms")

	for i, sc := range cases {
		sc := sc
		name := names[i]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			norm := sc.Normalized()
			want, err := runLockstep(norm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runExact(norm)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Cores) != len(want.Cores) {
				t.Fatalf("core count drifted: event %d, lockstep %d", len(got.Cores), len(want.Cores))
			}
			for c := range want.Cores {
				if got.Cores[c] != want.Cores[c] {
					t.Errorf("core %d drifted from lockstep:\nevent:    %+v\nlockstep: %+v",
						c, got.Cores[c], want.Cores[c])
				}
				// Accounting identities both engines must uphold: a bug
				// they share would pass the equality check above.
				s := got.Cores[c].Core
				if s.FrontEndStallCycles+s.BackEndStallCycles > s.Cycles {
					t.Errorf("core %d: front-end %d + back-end %d stall cycles exceed %d cycles",
						c, s.FrontEndStallCycles, s.BackEndStallCycles, s.Cycles)
				}
				if s.FetchStallCycles > s.Cycles {
					t.Errorf("core %d: %d fetch-stall cycles exceed %d cycles", c, s.FetchStallCycles, s.Cycles)
				}
				if s.Instructions > 3*s.Cycles {
					t.Errorf("core %d: %d instructions in %d cycles exceed the 3-wide retire bound",
						c, s.Instructions, s.Cycles)
				}
			}
		})
	}
}

// TestEventKernel64CoreSmoke proves the scale unlock: a 64-core
// scenario — four times the old MaxCores — completes on the event
// kernel and reports sane per-core results. The lockstep engine is
// deliberately not run here; at this scale it is exactly the cost this
// kernel exists to avoid.
func TestEventKernel64CoreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core smoke is not a -short test")
	}
	cores := make([]Config, 64)
	for i := range cores {
		m := Shotgun
		if i%2 == 1 {
			m = None
		}
		cores[i] = Config{
			Workload: "Oracle", Mechanism: m,
			WarmupInstr: 20_000, MeasureInstr: 30_000, Samples: 1,
		}
	}
	res := MustRunScenario(Scenario{Cores: cores})
	if len(res.Cores) != 64 {
		t.Fatalf("got %d core results, want 64", len(res.Cores))
	}
	for i, r := range res.Cores {
		if r.Core.Instructions == 0 || r.Core.Cycles == 0 {
			t.Fatalf("core %d measured nothing: %+v", i, r.Core)
		}
		if ipc := r.Core.IPC(); ipc <= 0 || ipc > 3 {
			t.Fatalf("core %d IPC %v outside (0, 3]", i, ipc)
		}
	}
}

// interference8 reconstructs the harness interference experiment's
// 8-core shape (shotgun primary, 7 entire-region co-runners) for the
// engine benchmarks, at the bench scale of BenchmarkScenarioThroughput.
func interference8() Scenario {
	co := Config{
		Workload: "Oracle", Mechanism: Shotgun,
		RegionMode: prefetch.RegionEntire, Layout: footprint.Layout32,
		WarmupInstr: 150_000, MeasureInstr: 250_000, Samples: 1,
	}
	primary := co
	primary.RegionMode = 0
	primary.Layout = footprint.Layout{}
	cores := []Config{primary}
	for i := 0; i < 7; i++ {
		cores = append(cores, co)
	}
	return Scenario{Cores: cores}
}

// benchEngine drives one engine over the 8-core interference scenario;
// the BenchmarkEngine* pair (the lockstep half lives in lockstep_test.go)
// quantifies the event kernel's wall-clock win over the per-cycle loop.
func benchEngine(b *testing.B, run func(Scenario) (ScenarioResult, error)) {
	sc := interference8().Normalized()
	// Warm the shared program/predecode artifacts so the comparison
	// times the engines, not one-time workload generation.
	if _, err := run(sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cores[0].Core.Instructions == 0 {
			b.Fatal("no instructions retired")
		}
	}
}

func BenchmarkEngineEvent8Core(b *testing.B) { benchEngine(b, runExact) }
