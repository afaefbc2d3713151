package spec

import (
	"fmt"
	"os"
	"regexp"
	"sort"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/harness"
	"shotgun/internal/prefetch"
	"shotgun/internal/sim"
	"shotgun/internal/stats"
	"shotgun/internal/workload"
)

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
	var err error
	if c.Workload != "" {
		cfg.Workload = c.Workload
	}
	if c.Mechanism != "" {
		if cfg.Mechanism, err = sim.ParseMechanism(c.Mechanism); err != nil {
			return cfg, err
		}
	}
	if c.BTBEntries != 0 {
		cfg.BTBEntries = c.BTBEntries
	}
	if c.RegionMode != "" {
		if cfg.RegionMode, err = prefetch.ParseRegionMode(c.RegionMode); err != nil {
			return cfg, err
		}
	}
	if c.FootprintBits != 0 {
		if cfg.Layout, err = footprint.LayoutForBits(c.FootprintBits); err != nil {
			return cfg, err
		}
	}
	if c.BPU != "" {
		if cfg.BPU, err = sim.ParseBPU(c.BPU); err != nil {
			return cfg, err
		}
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
	if cbtb < 0 {
		return cfg, fmt.Errorf("cbtb_entries must be non-negative (got %d)", cbtb)
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
// validates the result — the one check of every layer's overrides — so
// every compile-time error names its cell.
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

// formatRE is the set of cell format verbs a spec may use: a plain
// fixed-precision float. Anything fancier belongs in a new table kind,
// not in a format string.
var formatRE = regexp.MustCompile(`^%\.\d{1,2}f$`)

// cellFormat resolves a table's cell format verb, def when unset.
func cellFormat(format, def string) (string, error) {
	if format == "" {
		return def, nil
	}
	if !formatRE.MatchString(format) {
		return "", fmt.Errorf("format %q is not a fixed-precision float verb (%%.Nf)", format)
	}
	return format, nil
}

// checkNames applies the rules every named list of a table shares —
// axis points, mixes, workloads, mechanisms: each one named, no name
// twice.
func checkNames[T any](what string, items []T, name func(T) string) error {
	seen := make(map[string]bool, len(items))
	for i, it := range items {
		n := name(it)
		if n == "" {
			return fmt.Errorf("%s %d: name is required", what, i)
		}
		if seen[n] {
			return fmt.Errorf("duplicate %s %q", what, n)
		}
		seen[n] = true
	}
	return nil
}

func axisName(a Axis) string { return a.Name }
func itself(s string) string { return s }

// rowWorkloads resolves a table's workload list: absent means the full
// suite, an explicitly empty list is rejected (a zero-row table is
// always a mistake), and names must be known and listed once.
func rowWorkloads(wls []string) ([]string, error) {
	if wls == nil {
		return workload.Names(), nil
	}
	if len(wls) == 0 {
		return nil, fmt.Errorf("workloads must not be empty (omit the field for the full suite)")
	}
	if err := checkNames("workload", wls, itself); err != nil {
		return nil, err
	}
	for _, wl := range wls {
		if _, err := workload.Get(wl); err != nil {
			return nil, err
		}
	}
	return wls, nil
}

// defaultAnalysisBlocks is a trace analysis's length when its spec
// leaves blocks unset (the paper's Figure 3/4 analyses).
const defaultAnalysisBlocks = 400_000

// analysisBlocks resolves an analysis's trace length: zero means the
// default, and the cap bounds the CPU one spec-driven analysis may
// demand.
func analysisBlocks(n int) (int, error) {
	switch {
	case n < 0:
		return 0, fmt.Errorf("blocks must be non-negative (got %d)", n)
	case n > MaxAnalysisBlocks:
		return 0, fmt.Errorf("blocks %d exceeds the %d cap", n, MaxAnalysisBlocks)
	case n == 0:
		return defaultAnalysisBlocks, nil
	}
	return n, nil
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

// Compile is the one check of a spec, made as it expands: the
// document-level rules, then each table's fields as its kind's compiler
// reads them. Every cell config is composed and sim-validated, every
// scenario is materialized in deterministic order, and the total
// expansion is capped at MaxScenarios. The returned Compiled is
// immutable and safe for concurrent renders.
func (s Spec) Compile() (*Compiled, error) {
	if err := s.checkDoc(); err != nil {
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

// Compile decodes and compiles a raw spec document.
func Compile(data []byte) (*Compiled, error) {
	s, err := decode(data)
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

// CompileFile is Compile over a file's contents.
func CompileFile(path string) (*Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	c, err := Compile(data)
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
	kinds := 0
	for _, set := range []bool{t.Grid != nil, t.Interference != nil, t.RegionCDF != nil, t.BranchCoverage != nil, t.Sampled != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return compiledTable{}, fmt.Errorf("exactly one of grid, interference, region_cdf, branch_coverage, sampled must be set (got %d)", kinds)
	}
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
