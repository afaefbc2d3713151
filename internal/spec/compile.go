package spec

import (
	"fmt"
	"sort"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/harness"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/stats"
	"shotgun/internal/workload"
)

// parseMechanism maps a spec spelling to the sim enum.
func parseMechanism(name string) (sim.Mechanism, error) {
	for _, m := range sim.Mechanisms() {
		if string(m) == name {
			return m, nil
		}
	}
	return "", fmt.Errorf("unknown mechanism %q (have %v)", name, sim.Mechanisms())
}

// parseRegionMode maps a spec spelling to the prefetch enum (the same
// vocabulary shotgun-sim's -region flag uses).
func parseRegionMode(name string) (prefetch.RegionMode, error) {
	switch name {
	case "vector":
		return prefetch.RegionVector, nil
	case "none":
		return prefetch.RegionNone, nil
	case "entire":
		return prefetch.RegionEntire, nil
	case "5blocks":
		return prefetch.RegionFiveBlocks, nil
	}
	return 0, fmt.Errorf("unknown region mode %q (vector, none, entire, 5blocks)", name)
}

// metric computes one reported value from a cell's result (and, for
// relative metrics, the workload baseline's).
type metric struct {
	// value reads the metric; base is only meaningful when relative.
	value func(res, base sim.Result) float64
	// relative metrics need the no-prefetch baseline result.
	relative bool
}

// metrics is the reportable-value vocabulary.
var metrics = map[string]metric{
	"ipc":               {value: func(res, _ sim.Result) float64 { return res.IPC() }},
	"speedup":           {value: func(res, base sim.Result) float64 { return res.Speedup(base) }, relative: true},
	"stall_coverage":    {value: func(res, base sim.Result) float64 { return res.StallCoverage(base) }, relative: true},
	"prefetch_accuracy": {value: func(res, _ sim.Result) float64 { return res.PrefetchAccuracy }},
	"data_fill_cycles":  {value: func(res, _ sim.Result) float64 { return res.AvgDataFillCycles() }},
	"btb_mpki":          {value: func(res, _ sim.Result) float64 { return res.BTBMPKI() }},
	"l1i_mpki":          {value: func(res, _ sim.Result) float64 { return res.L1IMPKI() }},
}

// metricNames lists the vocabulary deterministically for error text.
func metricNames() []string {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// apply composes one override layer's scalar fields onto a config.
// Zero-valued spec fields leave the config untouched, so layers stack:
// base, then row, then column. CBTBEntries is NOT materialized here —
// it depends on the final BTB budget, which a later layer may still
// override, so compose resolves it only after every layer has applied.
func (c Config) apply(cfg sim.Config) (sim.Config, error) {
	if c.Workload != "" {
		cfg.Workload = c.Workload
	}
	if c.Mechanism != "" {
		m, err := parseMechanism(c.Mechanism)
		if err != nil {
			return cfg, err
		}
		cfg.Mechanism = m
	}
	if c.BTBEntries != 0 {
		cfg.BTBEntries = c.BTBEntries
	}
	if c.RegionMode != "" {
		mode, err := parseRegionMode(c.RegionMode)
		if err != nil {
			return cfg, err
		}
		cfg.RegionMode = mode
	}
	switch c.FootprintBits {
	case 0:
	case 8:
		cfg.Layout = footprint.Layout8
	case 32:
		cfg.Layout = footprint.Layout32
	default:
		return cfg, fmt.Errorf("footprint_bits must be 8 or 32 (got %d)", c.FootprintBits)
	}
	if c.BPU != "" {
		b, err := sim.ParseBPU(c.BPU)
		if err != nil {
			return cfg, err
		}
		cfg.BPU = b
	}
	if c.Contexts != 0 {
		cfg.Contexts = c.Contexts
	}
	return cfg, nil
}

// materializeCBTB resolves the Figure 12 knob against the composed
// config's final budget: derive the Shotgun sizes from it, then pin
// the C-BTB capacity. A zero cbtb leaves the config untouched.
func materializeCBTB(cfg sim.Config, cbtb int) (sim.Config, error) {
	if cbtb == 0 {
		return cfg, nil
	}
	budget := cfg.BTBEntries
	if budget == 0 {
		budget = 2048
	}
	sizes, err := btb.ShotgunSizesForBudget(budget)
	if err != nil {
		return cfg, err
	}
	sizes.CEntries = cbtb
	cfg.ShotgunSizes = &sizes
	return cfg, nil
}

// compose stacks override layers onto a workload's zero config and
// validates the result, so every compile-time error names its cell.
// cbtb_entries is resolved last (latest layer wins), against the BTB
// budget the full stack settled on — a column's btb_entries therefore
// reshapes a base layer's cbtb_entries correctly, whatever the order.
func compose(wl string, layers ...Config) (sim.Config, error) {
	cfg := sim.Config{Workload: wl}
	cbtb := 0
	for _, l := range layers {
		var err error
		if cfg, err = l.apply(cfg); err != nil {
			return cfg, err
		}
		if l.CBTBEntries != 0 {
			cbtb = l.CBTBEntries
		}
	}
	cfg, err := materializeCBTB(cfg, cbtb)
	if err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// workloadsOrAll resolves the shared "absent means the full suite"
// default.
func workloadsOrAll(wls []string) []string {
	if wls == nil {
		return workload.Names()
	}
	return wls
}

// defaultAnalysisBlocks is a trace analysis's length when its spec
// leaves blocks unset (the paper's Figure 3/4 analyses).
const defaultAnalysisBlocks = 400_000

// blocksOrDefault resolves an analysis's trace length.
func blocksOrDefault(n int) int {
	if n == 0 {
		return defaultAnalysisBlocks
	}
	return n
}

// compiledTable is one expanded output table: its scenario work list
// and its renderer.
type compiledTable struct {
	id   string
	desc string
	// scenarios is nil for pure trace analyses.
	scenarios []sim.Scenario
	// analysisCost is a trace analysis's render work (blocks ×
	// workloads); zero for simulation tables. Compile caps the spec-wide
	// sum, the analyses' counterpart of the scenario cap.
	analysisCost int
	render       func(*harness.Runner) *stats.Table
}

// Compiled is the executable form of a spec: per-table scenario sets
// and renderers, adaptable to harness.Experiment values.
type Compiled struct {
	// Spec is the validated source document.
	Spec   Spec
	tables []compiledTable
}

// Compile validates and expands a spec: every cell config is composed
// and sim-validated, every scenario is materialized in deterministic
// order, and the total expansion is capped at MaxScenarios. The
// returned Compiled is immutable and safe for concurrent renders.
func (s Spec) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s}
	total, analysisCost := 0, 0
	for _, t := range s.Tables {
		ct, err := compileTable(t)
		if err != nil {
			return nil, fmt.Errorf("spec %q: table %q: %w", s.Name, t.ID, err)
		}
		ct.desc = s.Desc
		if ct.desc == "" {
			ct.desc = t.Title
		}
		total += len(ct.scenarios)
		if total > MaxScenarios {
			return nil, fmt.Errorf("spec %q: expands to more than %d scenarios (table %q pushed it past the cap)",
				s.Name, MaxScenarios, t.ID)
		}
		// The analyses' cost cap aggregates across tables for the same
		// reason the scenario cap does: per-table bounds alone multiply
		// by table count.
		analysisCost += ct.analysisCost
		if analysisCost > MaxAnalysisCost {
			return nil, fmt.Errorf("spec %q: analysis tables walk more than %d total blocks (table %q pushed it past the cap)",
				s.Name, MaxAnalysisCost, t.ID)
		}
		c.tables = append(c.tables, ct)
	}
	return c, nil
}

// Compile parses and compiles a raw spec document.
func Compile(data []byte) (*Compiled, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

// CompileFile parses and compiles a spec file.
func CompileFile(path string) (*Compiled, error) {
	s, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	c, err := s.Compile()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Scenarios returns the union of every table's scenario set, in
// deterministic expansion order (duplicates included — consumers
// deduplicate by content key).
func (c *Compiled) Scenarios() []sim.Scenario {
	var out []sim.Scenario
	for _, t := range c.tables {
		out = append(out, t.scenarios...)
	}
	return out
}

// Experiments adapts every table to a harness.Experiment, in spec
// order: Scenarios declares the full work list (nil for pure analyses)
// and Table assembles from the runner's memoized results.
func (c *Compiled) Experiments() []harness.Experiment {
	out := make([]harness.Experiment, 0, len(c.tables))
	for _, t := range c.tables {
		t := t
		e := harness.Experiment{
			ID:    t.id,
			Desc:  t.desc,
			Table: func(r *harness.Runner) *stats.Table { return t.render(r) },
		}
		if t.scenarios != nil {
			scs := t.scenarios
			e.Scenarios = func() []sim.Scenario { return scs }
		}
		out = append(out, e)
	}
	return out
}

// compileTable expands one table declaration.
func compileTable(t Table) (compiledTable, error) {
	switch {
	case t.Grid != nil:
		return compileGrid(t)
	case t.Interference != nil:
		return compileInterference(t)
	case t.RegionCDF != nil:
		return compileRegionCDF(t)
	case t.Sampled != nil:
		return compileSampled(t)
	default:
		return compileBranchCoverage(t)
	}
}
