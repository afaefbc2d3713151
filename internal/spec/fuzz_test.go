package spec

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecParse holds the spec surface to its contract: arbitrary
// bytes — malformed JSON, truncated documents, hostile field values —
// must either parse into a valid spec or return an error. Never a
// panic, in Parse or in the Compile expansion of whatever parsed.
// Wired into the CI fuzz-smoke job next to the trace/server/dispatch
// targets.
func FuzzSpecParse(f *testing.F) {
	// Seed with the real checked-in specs (best mutation starting
	// points) plus targeted malformed shapes.
	if paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json")); err == nil {
		for _, p := range paths {
			if data, err := os.ReadFile(p); err == nil {
				f.Add(data)
			}
		}
	}
	f.Add([]byte(goodSpec))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc","format":"%999f"}}]}`))
	f.Add([]byte(`{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{"co_runners":[-1],"mixes":[{"name":"m","co_runner":{}}]}}]}`))
	f.Add([]byte(`{"version":1,"name":"x","tables":[{"id":"t","title":"t","region_cdf":{"distances":[0],"blocks":-1}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Whatever parsed must also compile without panicking (errors
		// are fine: compile-level checks like the scenario cap live
		// there).
		_, _ = s.Compile()
	})
}

// FuzzSamplingSpec drives the sampling object with arbitrary parameter
// values — overflowing periods, negative counts, NaN targets — through
// Compile. The contract matches FuzzSpecParse: an error or a compiled
// table, never a panic; and a schedule that compiles fits its period,
// W + U + F ≤ P, by arithmetic that cannot wrap. Wired into the CI
// fuzz-smoke job.
func FuzzSamplingSpec(f *testing.F) {
	f.Add(uint64(16384), uint64(1024), uint64(1024), uint64(8192), 16, 0.03, 64)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), 0, 0.0, 0)
	f.Add(^uint64(0), ^uint64(0), uint64(1), uint64(0), -1, -1.0, -1)
	f.Add(uint64(100), uint64(90), uint64(20), uint64(0), 1<<30, 1.5, 1)
	// W + U wraps around 2^64: to 0, and to P's neighbourhood.
	f.Add(uint64(100), uint64(1)<<63, uint64(1)<<63, uint64(0), 0, 0.0, 0)
	f.Add(uint64(100), ^uint64(0), uint64(1), uint64(0), 0, 0.0, 0)

	f.Fuzz(func(t *testing.T, period, warmup, unit, funcWarm uint64, units int, targetCI float64, maxUnits int) {
		s := Spec{
			Version: Version,
			Name:    "fuzz",
			Tables: []Table{{
				ID:    "t",
				Title: "t",
				Sampled: &Sampled{
					Sampling: Sampling{
						Period:   period,
						Warmup:   warmup,
						Unit:     unit,
						FuncWarm: funcWarm,
						Units:    units,
						TargetCI: targetCI,
						MaxUnits: maxUnits,
					},
				},
			}},
		}
		c, err := s.Compile()
		if err != nil {
			return
		}
		for _, sc := range c.Scenarios() {
			if err := sc.Validate(); err != nil {
				t.Fatalf("compiled scenario invalid: %v", err)
			}
			p := sc.Normalized().Cores[0].Sampling
			if p == nil {
				continue
			}
			if p.WarmupBlocks > p.PeriodBlocks ||
				p.UnitBlocks > p.PeriodBlocks-p.WarmupBlocks ||
				p.FuncWarmBlocks > p.PeriodBlocks-p.WarmupBlocks-p.UnitBlocks {
				t.Fatalf("compiled schedule does not fit its period: %+v", *p)
			}
		}
	})
}
