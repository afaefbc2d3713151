package main

import (
	"fmt"
	"runtime"
	"time"

	"shotgun/internal/sim"
)

// cmp: multi-core scenarios over one shared LLC and mesh, run one at a
// time through sim.RunScenario. Phase 1 runs the 8-core scenarios (4x4
// mesh), phase 2 the 64-core one (8x8 mesh).
type cmpBench struct {
	seed uint64
	sz   size
	in   cmpInputs
}

func newCMP(o options, sz size) bench { return &cmpBench{seed: o.seed, sz: sz} }

func (b *cmpBench) close() {}

func (b *cmpBench) setup(st *setupTimes) error {
	buildPrograms(st)
	b.in = genCMP(b.seed, b.sz)
	return nil
}

// scenarioInstr is a scenario's simulated instruction budget over all
// cores, warm-up included.
func scenarioInstr(sc sim.Scenario) uint64 {
	var n uint64
	for _, c := range sc.Cores {
		n += c.WarmupInstr + c.MeasureInstr
	}
	return n
}

func (b *cmpBench) run(d time.Duration, t *tracer) (*outcome, error) {
	o := newOutcome("cmp.8core", "cmp.64core")
	dig := newDigester()
	var work modelled
	var cycles float64
	begin := time.Now()

	// runOne simulates one scenario, checks it, and on its first
	// execution feeds the digest and the modelled work.
	runOne := func(sc sim.Scenario, p *phase, first bool) error {
		// Collect the previous scenario's garbage outside the timing, so
		// the peak resident set is one scenario's, not two.
		runtime.GC()
		o.attempted++
		start := time.Now()
		res, err := sim.RunScenario(sc)
		end := time.Now()
		if err != nil {
			o.failed++
			return nil
		}
		t.span("sim.RunScenario", "", fmt.Sprintf("cmp.%dcore", len(sc.Cores)), start, end)
		if err := checkScenario(sc, res); err != nil {
			return err
		}
		p.add(scenarioInstr(sc), end.Sub(start))
		for i, r := range res.Cores {
			cycles += coreCycles(r, sc.Cores[i])
			if first {
				work.add(r)
			}
		}
		if first {
			dig.add(res)
		}
		return nil
	}

	// Each phase repeats its scenarios until its share of the time is
	// used; the first pass feeds the digest and the modelled work.
	cpu0 := cpuTime()
	for pass := 0; pass == 0 || time.Since(begin) < d/2; pass++ {
		for _, sc := range b.in.Small {
			if err := runOne(sc, &o.p1, pass == 0); err != nil {
				return nil, err
			}
		}
	}
	o.p1.cpu = cpuTime() - cpu0
	cpu0 = cpuTime()
	for n := 0; n == 0 || time.Since(begin) < d; n++ {
		if err := runOne(b.in.Big, &o.p2, n == 0); err != nil {
			return nil, err
		}
	}
	o.p2.cpu = cpuTime() - cpu0
	work.into(o.layer)
	o.layer["sim.host_ns_per_core_cycle"] = float64((o.p1.dur + o.p2.dur).Nanoseconds()) / cycles
	o.digest = dig.sum()
	o.simInstr = o.p1.instr + o.p2.instr
	return o, nil
}
