package main

import (
	"bytes"
	"fmt"
	"time"

	"shotgun/internal/sim"
	"shotgun/internal/trace"
	"shotgun/internal/workload"
)

// solo: serial single-core simulations on one goroutine. Phase 1 runs
// the exact cells through sim.Run; phase 2 replays one recorded trace
// through sim.RunStream under a sampling schedule. After both, the same
// trace is replayed exactly once, so the sampled confidence interval
// can be checked against the exact IPC.
type soloBench struct {
	seed uint64
	sz   size

	in soloInputs
	// salted is the seed-salted trace phase 2 replays; fixed is one pass
	// of the profile's own walk, on which the sampled estimate is checked
	// against the exact IPC.
	salted, fixed recorded
}

// recorded is one recorded trace.
type recorded struct {
	data  []byte
	instr uint64
}

func newSolo(o options, sz size) bench { return &soloBench{seed: o.seed, sz: sz} }

func (b *soloBench) close() {}

func (b *soloBench) setup(st *setupTimes) error {
	buildPrograms(st)
	b.in = genSolo(b.seed, b.sz)

	start := time.Now()
	prof := workload.MustGet(b.in.TraceWorkload)
	var err error
	if b.salted, err = record(workload.NewWalkerConfig(prof.Program(), b.in.TraceSeed, prof.Walk), b.sz.traceBlocks); err != nil {
		return err
	}
	// The accuracy check always runs at full size: it is only meaningful
	// on a trace long enough for its sampling schedule.
	if b.fixed, err = record(prof.NewWalker(), fullSize.traceBlocks); err != nil {
		return err
	}
	st.traceMs = float64(time.Since(start)) / 1e6
	return nil
}

// record writes the first n blocks of a walk as a trace.
func record(w workload.Stream, n int) (recorded, error) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return recorded{}, err
	}
	var instr uint64
	for i := 0; i < n; i++ {
		bb := w.Next()
		instr += uint64(bb.NumInstr)
		if err := tw.Write(bb); err != nil {
			return recorded{}, err
		}
	}
	if err := tw.Flush(); err != nil {
		return recorded{}, err
	}
	return recorded{data: buf.Bytes(), instr: instr}, nil
}

// replayConfigs are the exact and sampled configurations of a trace's
// replay; both cover exactly one pass of the trace.
func (b *soloBench) replayConfigs(tr recorded, schedule sim.Sampling) (exact, sampled sim.Config) {
	warm := tr.instr / 16
	exact = sim.Config{
		Workload: b.in.TraceWorkload, Mechanism: sim.Shotgun,
		WarmupInstr: warm, MeasureInstr: tr.instr - warm, Samples: 1,
	}
	sampled = exact
	sampled.Sampling = &schedule
	return exact, sampled
}

// replay runs a trace through sim.RunStream once, checking the result.
func (b *soloBench) replay(tr recorded, cfg sim.Config, t *tracer) (sim.Result, time.Duration, error) {
	src, err := trace.NewStream(bytes.NewReader(tr.data))
	if err != nil {
		return sim.Result{}, 0, err
	}
	var stream workload.Stream = src
	var timed *timedStream
	if t != nil {
		timed = &timedStream{Stream: src}
		stream = timed
	}
	start := time.Now()
	res, err := sim.RunStream(cfg, stream)
	end := time.Now()
	if timed != nil {
		timed.flush(t)
	}
	t.span("sim.RunStream", "", "solo", start, end)
	if err != nil {
		return res, 0, err
	}
	if s := res.Sampled; s != nil {
		if s.TotalInstr() < cfg.MeasureInstr {
			return res, 0, fmt.Errorf("sampled replay traversed %d instructions, short of the exact run's %d", s.TotalInstr(), cfg.MeasureInstr)
		}
		err = checkResult(res, 0)
	} else {
		err = checkResult(res, cfg.MeasureInstr)
	}
	return res, end.Sub(start), err
}

func (b *soloBench) run(d time.Duration, t *tracer) (*outcome, error) {
	o := newOutcome("solo.exact", "solo.sampled")
	dig := newDigester()
	var work modelled
	var cycles float64
	begin := time.Now()

	// Phase 1: whole passes over the exact cells until 60% of the time
	// is used; the first pass feeds the digest and the modelled work.
	cpu0 := cpuTime()
	for pass := 0; pass == 0 || time.Since(begin) < d*6/10; pass++ {
		for _, cfg := range b.in.Cells {
			o.attempted++
			start := time.Now()
			res, err := sim.Run(cfg)
			end := time.Now()
			if err != nil {
				o.failed++
				continue
			}
			t.span("sim.Run", "", "solo", start, end)
			if err := checkResult(res, cfg.MeasureInstr); err != nil {
				return nil, err
			}
			o.p1.add(cfg.WarmupInstr+cfg.MeasureInstr, end.Sub(start))
			cycles += coreCycles(res, cfg)
			if pass == 0 {
				dig.add(res)
				work.add(res)
			}
		}
	}
	o.p1.cpu = cpuTime() - cpu0
	work.into(o.layer)
	o.layer["sim.host_ns_per_core_cycle"] = float64(o.p1.dur.Nanoseconds()) / cycles
	cpu0 = cpuTime()

	// Phase 2: sampled replays of the seed-salted trace until the time
	// is up.
	_, sampledCfg := b.replayConfigs(b.salted, b.sz.sampling)
	var first sim.Result
	for n := 0; n == 0 || time.Since(begin) < d; n++ {
		o.attempted++
		res, dur, err := b.replay(b.salted, sampledCfg, t)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			first = res
			dig.add(res)
		}
		o.p2.add(res.Sampled.TotalInstr(), dur)
	}

	o.p2.cpu = cpuTime() - cpu0

	// Sampled accuracy, on the profile's own walk: the sampled 95%
	// confidence interval must contain the exact IPC of the same trace.
	fixedExact, fixedSampled := b.replayConfigs(b.fixed, fullSize.sampling)
	o.attempted += 2
	exact, exactDur, err := b.replay(b.fixed, fixedExact, t)
	if err != nil {
		return nil, err
	}
	sampled, sampledDur, err := b.replay(b.fixed, fixedSampled, t)
	if err != nil {
		return nil, err
	}
	if !sampled.Sampled.IPC.Contains(exact.IPC()) {
		return nil, fmt.Errorf("sampled IPC %v does not contain the exact IPC %.4f of the same trace", sampled.Sampled.IPC, exact.IPC())
	}
	dig.add(exact)
	dig.add(sampled)
	o.digest = dig.sum()

	speedup := float64(exactDur) / float64(sampledDur)
	o.layer["sample.detail_frac"] = first.Sampled.Coverage()
	o.layer["sample.ipc_rel_halfwidth"] = first.Sampled.IPC.RelHalfWidth()
	o.layer["sample.speedup"] = speedup
	o.record["sampled_speedup"] = speedup
	o.record["sampled_ipc"] = sampled.Sampled.IPC.String()
	o.record["exact_ipc"] = exact.IPC()
	o.simInstr = o.p1.instr + o.p2.instr
	return o, nil
}
