package sim

import (
	"fmt"
	"testing"
)

// TestSteadyStateAllocs extends the engines' zero-allocation floor
// (prefetch.TestConformanceHotPathAllocs) to everything the event
// kernel drives around them: once a scenario is warm, a span of kernel
// steps — Core.Tick with its lookahead ring, the uncore's in-flight
// fills and the walkers feeding every context — must not allocate.
// Steady-state garbage sets a long multi-core run's heap peak, so the
// floor is 0, at one core and at eight.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short noise")
	}
	// The measurement phase outlasts the test, so the kernel never
	// finishes; warming crosses the warmup/measurement boundary first.
	cfg := func(wl string, m Mechanism) Config {
		return Config{Workload: wl, Mechanism: m,
			WarmupInstr: 100_000, MeasureInstr: 1 << 40, Samples: 1}
	}
	one := Scenario{Cores: []Config{cfg("Oracle", Shotgun)}}
	// Eight cores seat every mechanism on one shared LLC and mesh, and
	// one of them runs two hardware contexts.
	wls := []string{"Oracle", "Nutch", "DB2", "Zeus", "Apache", "Streaming"}
	var eight Scenario
	for i, m := range Mechanisms() {
		eight.Cores = append(eight.Cores, cfg(wls[i%len(wls)], m))
	}
	eight.Cores[0].Contexts = 2

	for _, sc := range []Scenario{one, eight} {
		t.Run(fmt.Sprintf("cores=%d", len(sc.Cores)), func(t *testing.T) {
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			states, err := buildStates(sc.Normalized(), nil)
			if err != nil {
				t.Fatal(err)
			}
			k := newKernel(states)
			const warmInstr = 300_000
			for warm := false; !warm; {
				k.step()
				warm = true
				for _, cs := range states {
					warm = warm && cs.c.Instructions() >= warmInstr
				}
			}
			const span = 20_000 // event cycles per measured span
			// One run of five spans: AllocsPerRun truncates its mean per
			// run, so only a single run counts every allocation.
			allocs := testing.AllocsPerRun(1, func() {
				for range 5 {
					for i := 0; i < span; i++ {
						k.step()
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("5×%d warm event cycles allocate %.0f times", span, allocs)
			}
			if k.live != len(states) {
				t.Fatal("a core finished its schedule inside the measured span")
			}
		})
	}
}
