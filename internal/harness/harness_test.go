package harness

import (
	"testing"

	"shotgun/internal/sim"
)

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(Scale{WarmupInstr: 120_000, MeasureInstr: 150_000, Samples: 1})
	cfg := sim.Config{Workload: "Nutch", Mechanism: sim.None}
	a := r.Run(cfg)
	b := r.Run(cfg)
	if a.Core != b.Core {
		t.Fatal("memoized results differ")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.cache))
	}
}
