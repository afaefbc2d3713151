package main

import (
	"time"

	"shotgun/internal/sim"
	"shotgun/internal/workload"
)

// bench is one workload of the benchmark.
type bench interface {
	// setup generates the inputs and builds what the measured runs
	// need.
	setup(st *setupTimes) error
	// run measures for about d, recording spans when t is non-nil, and
	// returns an error on any failed correctness check.
	run(d time.Duration, t *tracer) (*outcome, error)
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(o options, sz size) bench{
	"solo": newSolo,
	"cmp":  newCMP,
	"farm": newFarm,
}

// buildPrograms builds every workload's program and predecode image
// through the process-wide registry the simulator reads.
func buildPrograms(st *setupTimes) {
	for _, p := range workload.Profiles() {
		start := time.Now()
		p.Program()
		mid := time.Now()
		p.Decoder()
		st.programMs += float64(mid.Sub(start)) / 1e6
		st.predecodeMs += float64(time.Since(mid)) / 1e6
	}
}

// modelled sums the simulated work behind a run's results: the counts
// that set how many host operations each instruction costs.
type modelled struct {
	instr, cycles, feStall, redirects, mispredicts, btbMisses, l1iMisses float64
	issued, useful, llc, fillCycles, fillSamples                         float64
}

func (m *modelled) add(r sim.Result) {
	c, h := r.Core, r.Hier
	m.instr += float64(c.Instructions)
	m.cycles += float64(c.Cycles)
	m.feStall += float64(c.FrontEndStallCycles)
	m.redirects += float64(c.DecodeRedirects + c.ExecRedirects)
	m.mispredicts += float64(c.DirMispredicts + c.RASMispredicts)
	m.btbMisses += float64(r.BTBMisses)
	m.l1iMisses += float64(h.DemandFetches - h.DemandL1IHits - h.DemandPrefBufHits)
	m.issued += float64(h.PrefetchesIssued)
	m.useful += float64(h.DemandPrefBufHits + h.PrefetchUsefulInflight)
	m.llc += float64(h.DemandLLCHits + h.DemandMemFills + h.PrefetchLLCHits + h.PrefetchMemFills +
		h.DataLLCHits + h.DataMemFills)
	m.fillCycles += float64(h.DataFillCycles)
	m.fillSamples += float64(h.DataFillSamples)
}

func (m *modelled) into(layer map[string]float64) {
	pki := func(x float64) float64 {
		if m.instr == 0 {
			return 0
		}
		return 1000 * x / m.instr
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layer["core.cycles_pki"] = pki(m.cycles)
	layer["core.fe_stall_pki"] = pki(m.feStall)
	layer["core.redirects_pki"] = pki(m.redirects)
	layer["bpu.mispredicts_pki"] = pki(m.mispredicts)
	layer["btb.mpki"] = pki(m.btbMisses)
	layer["cache.l1i_mpki"] = pki(m.l1iMisses)
	layer["prefetch.issued_pki"] = pki(m.issued)
	layer["prefetch.useful_frac"] = ratio(m.useful, m.issued)
	layer["uncore.llc_accesses_pki"] = pki(m.llc)
	layer["uncore.data_fill_cycles"] = ratio(m.fillCycles, m.fillSamples)
}

// coreCycles estimates the core-cycles a result's simulation stepped
// through, warm-up included: the measured cycles scaled by the share of
// the instruction budget that was measured.
func coreCycles(r sim.Result, cfg sim.Config) float64 {
	if r.Core.Instructions == 0 {
		return 0
	}
	return float64(r.Core.Cycles) * float64(cfg.WarmupInstr+cfg.MeasureInstr) / float64(r.Core.Instructions)
}

// layerMetric is one per-layer metric: every traced run reports every
// one, with 0 where the workload does not exercise the layer.
type layerMetric struct{ name, unit string }

func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, p := range layerPackages {
		out = append(out, layerMetric{p + ".self_pct", "%"})
	}
	return append(out,
		layerMetric{"sim.host_ns_per_core_cycle", "ns"},
		layerMetric{"trace.next_ns", "ns"},
		layerMetric{"runtime.allocs_per_kinstr", "1/kinstr"},
		layerMetric{"runtime.gc_cpu_frac", "ratio"},
		layerMetric{"workload.program_build_ms", "ms"},
		layerMetric{"predecode.image_build_ms", "ms"},
		layerMetric{"trace.record_ms", "ms"},
		layerMetric{"store.open_ms", "ms"},
		layerMetric{"core.cycles_pki", "1/kinstr"},
		layerMetric{"core.fe_stall_pki", "1/kinstr"},
		layerMetric{"core.redirects_pki", "1/kinstr"},
		layerMetric{"bpu.mispredicts_pki", "1/kinstr"},
		layerMetric{"btb.mpki", "1/kinstr"},
		layerMetric{"cache.l1i_mpki", "1/kinstr"},
		layerMetric{"prefetch.issued_pki", "1/kinstr"},
		layerMetric{"prefetch.useful_frac", "ratio"},
		layerMetric{"uncore.llc_accesses_pki", "1/kinstr"},
		layerMetric{"uncore.data_fill_cycles", "cycles"},
		layerMetric{"sample.detail_frac", "ratio"},
		layerMetric{"sample.ipc_rel_halfwidth", "ratio"},
		layerMetric{"sample.speedup", "x"},
		layerMetric{"store.put_p50_ms", "ms"},
		layerMetric{"store.put_p95_ms", "ms"},
		layerMetric{"store.get_p50_ms", "ms"},
		layerMetric{"store.hit_frac", "ratio"},
		layerMetric{"dispatch.queue_wait_p50_ms", "ms"},
		layerMetric{"dispatch.queue_wait_p95_ms", "ms"},
		layerMetric{"dispatch.run_p50_ms", "ms"},
		layerMetric{"server.submit_p50_ms", "ms"},
		layerMetric{"server.poll_p50_ms", "ms"},
		layerMetric{"server.polls_per_req", "count"},
		layerMetric{"server.http_non2xx", "count"},
		layerMetric{"spec.sweep_p50_ms", "ms"},
		layerMetric{"farm.cold_p50_ms", "ms"},
		layerMetric{"farm.cold_p95_ms", "ms"},
		layerMetric{"farm.warm_p50_ms", "ms"},
		layerMetric{"farm.warm_p95_ms", "ms"},
		layerMetric{"farm.req_per_s", "req/s"},
		layerMetric{"tracing.overhead_pct", "%"},
	)
}

// layerMetrics assembles the traced run's per-layer values from the
// profile split, the set-up timings, the workload's own values and the
// spans.
func layerMetrics(o *outcome, t *tracer, split map[string]float64, st setupTimes) map[string]float64 {
	m := map[string]float64{
		"workload.program_build_ms": st.programMs,
		"predecode.image_build_ms":  st.predecodeMs,
		"trace.record_ms":           st.traceMs,
		"store.open_ms":             st.storeOpenMs,
	}
	for _, p := range layerPackages {
		m[p+".self_pct"] = split[p]
	}
	for k, v := range o.layer {
		m[k] = v
	}
	for name, q := range map[string]struct {
		span string
		q    float64
	}{
		"store.put_p50_ms":           {"store.put", 0.5},
		"store.put_p95_ms":           {"store.put", 0.95},
		"store.get_p50_ms":           {"store.get", 0.5},
		"dispatch.queue_wait_p50_ms": {"dispatch.queue", 0.5},
		"dispatch.queue_wait_p95_ms": {"dispatch.queue", 0.95},
		"dispatch.run_p50_ms":        {"dispatch.run", 0.5},
		"server.submit_p50_ms":       {"server.submit", 0.5},
		"server.poll_p50_ms":         {"server.poll", 0.5},
		"spec.sweep_p50_ms":          {"spec.sweep", 0.5},
	} {
		m[name] = quantile(t.durations(q.span), q.q)
	}
	if gets := t.count("store.gets"); gets > 0 {
		m["store.hit_frac"] = t.count("store.hits") / gets
	}
	if calls := t.count("trace.next.calls"); calls > 0 {
		m["trace.next_ns"] = t.count("trace.next.ns") / calls
	}
	return m
}
