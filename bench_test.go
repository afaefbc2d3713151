// Package shotgun's top-level benchmarks regenerate every table and
// figure of the paper's evaluation under `go test -bench`. Each benchmark
// prints its table once (on the first iteration) and reports simulated
// instructions per second, so `go test -bench=. -benchmem` reproduces the
// full evaluation and characterizes simulator performance at once.
//
// Benchmarks run at a reduced scale by default so the whole suite
// completes in minutes; cmd/shotgun-bench runs the same experiments at
// full scale.
package shotgun_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/harness"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/spec"
	"shotgun/internal/stats"
	"shotgun/internal/trace"
	"shotgun/internal/workload"
)

// benchScale balances fidelity and suite runtime.
func benchScale() harness.Scale {
	return harness.Scale{WarmupInstr: 600_000, MeasureInstr: 900_000, Samples: 1}
}

var (
	runnerOnce sync.Once
	runner     *harness.Runner
)

func sharedRunner() *harness.Runner {
	runnerOnce.Do(func() { runner = harness.NewRunner(benchScale()) })
	return runner
}

// BenchmarkExperiments regenerates every table and figure of the spec
// catalog, one sub-benchmark per experiment ID (for example
// -bench=Experiments/fig7), printing each table once.
func BenchmarkExperiments(b *testing.B) {
	for _, exp := range spec.Catalog() {
		b.Run(exp.ID, func(b *testing.B) {
			r := sharedRunner()
			for i := 0; i < b.N; i++ {
				out := exp.Run(r)
				if i == 0 {
					fmt.Println(out)
				}
			}
		})
	}
}

// BenchmarkSimThroughput measures raw single-simulation speed as
// simulated (retired) instructions per second on one representative
// configuration — the paper's flagship workload under the paper's
// mechanism. The shared program/predecode artifacts are warmed first so
// the number characterizes the cycle simulator itself, not one-time
// program generation.
func BenchmarkSimThroughput(b *testing.B) {
	cfg := sim.Config{
		Workload:     "Oracle",
		Mechanism:    sim.Shotgun,
		WarmupInstr:  200_000,
		MeasureInstr: 800_000,
		Samples:      1,
	}
	prof := workload.MustGet(cfg.Workload)
	prof.Program()
	prof.Decoder()
	instrPerRun := cfg.WarmupInstr + cfg.MeasureInstr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.MustRun(cfg)
		if res.Core.Instructions == 0 {
			b.Fatal("simulation retired no instructions")
		}
	}
	instrPerSec := float64(uint64(b.N)*instrPerRun) / b.Elapsed().Seconds()
	b.ReportMetric(instrPerSec, "instr/s")
}

// BenchmarkSampledThroughput is the sampling mode's acceptance gate: a
// long recorded trace is simulated twice over the same span — exactly,
// and under a bounded-window periodic-sampling schedule — and the
// benchmark asserts the sampled IPC estimate contains the exact IPC
// within its reported 95% confidence interval at a >=10x wall-clock
// speedup.
func BenchmarkSampledThroughput(b *testing.B) {
	// Record one pass of the workload's walker as a trace: the stream
	// both runs replay, so exact and sampled see byte-identical input.
	const traceBlocks = 524_288
	prof := workload.MustGet("Oracle")
	prof.Program()
	prof.Decoder()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	walker := prof.NewWalker()
	var traceInstr uint64
	for i := 0; i < traceBlocks; i++ {
		bb := walker.Next()
		traceInstr += uint64(bb.NumInstr)
		if err := tw.Write(bb); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	exactCfg := sim.Config{
		Workload:     "Oracle",
		Mechanism:    sim.Shotgun,
		WarmupInstr:  50_000,
		MeasureInstr: traceInstr - 50_000,
		Samples:      1,
	}
	sampledCfg := exactCfg
	// Four 512-block units a 131072-block period apart traverse exactly
	// one trace pass; each unit is preceded by a 2048-block functional
	// warming window and a 512-block detailed warm-up, the distant gap
	// LLC-skimmed — the schedule that keeps detailed simulation under 1%
	// of the stream.
	sampledCfg.Sampling = &sim.Sampling{
		PeriodBlocks:   131_072,
		WarmupBlocks:   512,
		UnitBlocks:     512,
		FuncWarmBlocks: 2_048,
		Units:          4,
	}

	var exactDur, sampledDur time.Duration
	var sampledInstr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactStream, err := trace.NewStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		exact, err := sim.RunStream(exactCfg, exactStream)
		if err != nil {
			b.Fatal(err)
		}
		exactDur += time.Since(start)

		sampledStream, err := trace.NewStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		sampled, err := sim.RunStream(sampledCfg, sampledStream)
		if err != nil {
			b.Fatal(err)
		}
		sampledDur += time.Since(start)

		s := sampled.Sampled
		if s == nil || s.IPC.HalfWidth <= 0 {
			b.Fatalf("sampled run reported no confidence interval: %+v", s)
		}
		if s.TotalInstr() < exact.Core.Instructions {
			b.Fatalf("sampled traversal %d below exact span %d", s.TotalInstr(), exact.Core.Instructions)
		}
		if !s.IPC.Contains(exact.IPC()) {
			b.Fatalf("sampled IPC %v does not contain exact IPC %.4f", s.IPC, exact.IPC())
		}
		sampledInstr += s.TotalInstr()
	}
	speedup := float64(exactDur) / float64(sampledDur)
	if speedup < 10 {
		b.Fatalf("sampled speedup %.1fx below the 10x acceptance bar (exact %v, sampled %v)",
			speedup, exactDur, sampledDur)
	}
	instrPerSec := float64(sampledInstr) / sampledDur.Seconds()
	b.ReportMetric(instrPerSec, "instr/s")
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkScenarioThroughput measures multi-core scenario speed on the
// interference experiment's shape — an Oracle shotgun primary plus
// entire-region co-runners over one shared LLC and mesh — as total simulated
// instructions per second across the core-count sweep. This is the
// number the event-driven kernel exists to move: the lockstep engine's
// cost scaled with cycles × cores regardless of how many cores were
// stalled.
func BenchmarkScenarioThroughput(b *testing.B) {
	prof := workload.MustGet("Oracle")
	prof.Program()
	prof.Decoder()
	const warmup, measure = 150_000, 250_000
	primary := sim.Config{Workload: "Oracle", Mechanism: sim.Shotgun,
		WarmupInstr: warmup, MeasureInstr: measure, Samples: 1}
	coRunner := primary
	coRunner.RegionMode = prefetch.RegionEntire // the heavy mix
	coRunner.Layout = footprint.Layout32
	for _, cores := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			sc := sim.Scenario{Cores: []sim.Config{primary}}
			for i := 1; i < cores; i++ {
				sc.Cores = append(sc.Cores, coRunner)
			}
			instrPerRun := uint64(cores) * (warmup + measure)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sim.MustRunScenario(sc)
				if res.Cores[0].Core.Instructions == 0 {
					b.Fatal("scenario retired no instructions")
				}
			}
			instrPerSec := float64(uint64(b.N)*instrPerRun) / b.Elapsed().Seconds()
			b.ReportMetric(instrPerSec, "instr/s")
		})
	}
}

// BenchmarkAblationNoRIB quantifies the RIB's value (Section 4.2.1):
// Shotgun with a dedicated RIB vs returns burning full U-BTB entries at
// the same storage budget, on the two highest-BTB-pressure workloads.
func BenchmarkAblationNoRIB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := stats.NewTable("Ablation: dedicated RIB vs returns in U-BTB (equal storage)",
			"Workload", "with-RIB", "no-RIB")
		for _, wl := range []string{"Oracle", "DB2"} {
			base := sharedRunner().Run(sim.Config{Workload: wl, Mechanism: sim.None})
			with := sharedRunner().Run(sim.Config{Workload: wl, Mechanism: sim.Shotgun})
			sizes, err := btb.ShotgunSizesNoRIB(2048)
			if err != nil {
				b.Fatal(err)
			}
			without := sharedRunner().Run(sim.Config{
				Workload: wl, Mechanism: sim.Shotgun, ShotgunSizes: &sizes,
			})
			t.AddF(wl, "%.3f", with.Speedup(base), without.Speedup(base))
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

// BenchmarkAblationRDIP compares RDIP (Section 4.3's closest related
// work: RAS-context L1-I prefetching, no BTB prefilling) against
// Boomerang and Shotgun.
func BenchmarkAblationRDIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := stats.NewTable("Ablation: RDIP vs BTB-directed prefetchers (speedup over no-prefetch)",
			"Workload", "rdip", "boomerang", "shotgun")
		for _, wl := range []string{"Apache", "Oracle", "DB2"} {
			base := sharedRunner().Run(sim.Config{Workload: wl, Mechanism: sim.None})
			var cells []float64
			for _, m := range []sim.Mechanism{sim.RDIP, sim.Boomerang, sim.Shotgun} {
				res := sharedRunner().Run(sim.Config{Workload: wl, Mechanism: m})
				cells = append(cells, res.Speedup(base))
			}
			t.AddF(wl, "%.3f", cells...)
		}
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}
