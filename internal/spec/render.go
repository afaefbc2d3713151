package spec

// The per-kind compilers: each expands one table declaration into its
// scenario work list (composed, sim-validated configs in deterministic
// order) and a renderer that assembles the table from a runner's
// memoized results.

import (
	"fmt"
	"math"

	"shotgun/internal/harness"
	"shotgun/internal/sim"
	"shotgun/internal/stats"
	"shotgun/internal/workload"
)

// compileGrid expands a metric grid. Scenario order per row workload:
// the baseline first, then every (row × column) cell.
func compileGrid(t Table) (compiledTable, error) {
	g := t.Grid
	wls := workloadsOrAll(g.Workloads)
	met := metrics[g.Metric]
	format := g.Format
	if format == "" {
		format = "%.3f"
	}
	baseline := Config{Mechanism: "none"}
	if g.Baseline != nil {
		baseline = *g.Baseline
	}
	// An absent rows axis is one implicit all-defaults row.
	rows := g.Rows
	implicitRows := len(rows) == 0
	if implicitRows {
		rows = []Axis{{}}
	}

	// Enforce the cap BEFORE expanding: specs arrive from disk and
	// HTTP, and a crafted axis product must fail fast instead of
	// allocating its own fan-out.
	if cells := len(wls) * len(rows) * len(g.Columns); cells+len(wls) > MaxScenarios {
		return compiledTable{}, fmt.Errorf("grid expands to %d scenarios, above the %d cap", cells+len(wls), MaxScenarios)
	}

	// Expand every cell config (and each distinct cell workload's
	// baseline) up front, so compile errors name their cell and renders
	// cannot fail.
	baselines := make(map[string]sim.Config)
	baselineFor := func(wl string) (sim.Config, error) {
		if cfg, ok := baselines[wl]; ok {
			return cfg, nil
		}
		cfg, err := compose(wl, baseline)
		if err != nil {
			return cfg, fmt.Errorf("baseline for %q: %w", wl, err)
		}
		baselines[wl] = cfg
		return cfg, nil
	}
	cells := make([][][]sim.Config, len(wls))
	var scenarios []sim.Scenario
	for wi, wl := range wls {
		base, err := baselineFor(wl)
		if err != nil {
			return compiledTable{}, err
		}
		scenarios = append(scenarios, sim.SingleCore(base))
		cells[wi] = make([][]sim.Config, len(rows))
		for ri, row := range rows {
			cells[wi][ri] = make([]sim.Config, len(g.Columns))
			for ci, col := range g.Columns {
				cfg, err := compose(wl, g.Base, row.Config, col.Config)
				if err != nil {
					return compiledTable{}, fmt.Errorf("row %q column %q: %w", rowName(implicitRows, wl, row), col.Name, err)
				}
				cells[wi][ri][ci] = cfg
				if met.relative && cfg.Workload != wl {
					// A cell that overrides its workload needs that
					// workload's baseline too.
					cellBase, err := baselineFor(cfg.Workload)
					if err != nil {
						return compiledTable{}, err
					}
					scenarios = append(scenarios, sim.SingleCore(cellBase))
				}
				scenarios = append(scenarios, sim.SingleCore(cfg))
				// The pre-check above cannot count per-cell extra
				// baselines (workload overrides); re-check as the list
				// grows so allocation never outruns the cap.
				if len(scenarios) > MaxScenarios {
					return compiledTable{}, fmt.Errorf("grid expands to more than %d scenarios", MaxScenarios)
				}
			}
		}
	}

	headers := []string{"Workload"}
	if !implicitRows {
		headers = append(headers, g.RowsLabel)
	}
	for _, col := range g.Columns {
		headers = append(headers, col.Name)
	}

	render := func(r *harness.Runner) *stats.Table {
		r.PrefetchScenarios(scenarios)
		tab := stats.NewTable(t.Title, headers...)
		agg := make([][]float64, len(g.Columns))
		for wi, wl := range wls {
			for ri, row := range rows {
				vals := make([]float64, len(g.Columns))
				for ci := range g.Columns {
					cfg := cells[wi][ri][ci]
					var base sim.Result
					if met.relative {
						base = r.Run(baselines[cfg.Workload])
					}
					v := met.value(r.Run(cfg), base)
					vals[ci] = v
					agg[ci] = append(agg[ci], v)
				}
				if implicitRows {
					tab.AddF(wl, format, vals...)
				} else {
					rowCells := []string{wl, row.Name}
					for _, v := range vals {
						rowCells = append(rowCells, fmt.Sprintf(format, v))
					}
					tab.AddRow(rowCells...)
				}
			}
		}
		if g.Summary != "" {
			label := g.SummaryLabel
			if label == "" {
				label = "Avg"
				if g.Summary == "gmean" {
					label = "Gmean"
				}
			}
			sums := make([]float64, len(g.Columns))
			for ci, vs := range agg {
				if g.Summary == "gmean" {
					sums[ci] = stats.GeoMean(vs)
				} else {
					sums[ci] = stats.Mean(vs)
				}
			}
			if implicitRows {
				tab.AddF(label, format, sums...)
			} else {
				// Explicit-row grids carry the extra rows-label column;
				// pad it so the summary cells stay column-aligned.
				sumCells := []string{label, ""}
				for _, v := range sums {
					sumCells = append(sumCells, fmt.Sprintf(format, v))
				}
				tab.AddRow(sumCells...)
			}
		}
		return tab
	}
	return compiledTable{id: t.ID, scenarios: scenarios, render: render}, nil
}

// rowName labels a grid cell's row for error messages.
func rowName(implicit bool, wl string, row Axis) string {
	if implicit {
		return wl
	}
	return wl + "/" + row.Name
}

// defaultInterferenceWorkload is what every interference core runs
// when the spec names no workload (Oracle: the largest instruction
// working set of the suite).
const defaultInterferenceWorkload = "Oracle"

// compileInterference expands a co-runner sweep. Scenario order: the
// solo reference first, then each (mix, count) point.
func compileInterference(t Table) (compiledTable, error) {
	iv := t.Interference
	wl := iv.Workload
	if wl == "" {
		wl = defaultInterferenceWorkload
	}
	coreConfig := func(what string, c Config) (sim.Config, error) {
		cfg := sim.Config{Workload: wl}
		cfg, err := c.apply(cfg)
		if err != nil {
			return cfg, fmt.Errorf("%s: %w", what, err)
		}
		if cfg, err = materializeCBTB(cfg, c.CBTBEntries); err != nil {
			return cfg, fmt.Errorf("%s: %w", what, err)
		}
		if cfg.Mechanism == "" {
			cfg.Mechanism = sim.Shotgun
		}
		if err := cfg.Validate(); err != nil {
			return cfg, fmt.Errorf("%s: %w", what, err)
		}
		return cfg, nil
	}
	primary, err := coreConfig("primary", iv.Primary)
	if err != nil {
		return compiledTable{}, err
	}
	// Enforce the cap BEFORE materializing the fan-out, like the grid
	// kind: specs arrive over HTTP, and each point below copies up to
	// MaxCores configs, so the allocation must not precede the check.
	if points := 1 + len(iv.Mixes)*len(iv.CoRunners); points > MaxScenarios {
		return compiledTable{}, fmt.Errorf("interference sweep expands to %d scenarios, above the %d cap",
			points, MaxScenarios)
	}
	type point struct {
		mix       string
		coRunners int
		sc        sim.Scenario
	}
	// The solo reference carries the same LLC override as the swept
	// points: anchoring contended rows against a solo row with a
	// different cache size would misstate every delta the table shows.
	solo := sim.Scenario{Cores: []sim.Config{primary}, LLCSizeBytes: iv.LLCBytes}
	if err := solo.Validate(); err != nil {
		return compiledTable{}, fmt.Errorf("solo reference: %w", err)
	}
	scenarios := []sim.Scenario{solo}
	var points []point
	for _, mix := range iv.Mixes {
		co, err := coreConfig(fmt.Sprintf("mix %q", mix.Name), mix.CoRunner)
		if err != nil {
			return compiledTable{}, err
		}
		for _, n := range iv.CoRunners {
			cores := []sim.Config{primary}
			for i := 0; i < n; i++ {
				cores = append(cores, co)
			}
			sc := sim.Scenario{Cores: cores, LLCSizeBytes: iv.LLCBytes}
			if err := sc.Validate(); err != nil {
				return compiledTable{}, fmt.Errorf("mix %q with %d co-runners: %w", mix.Name, n, err)
			}
			scenarios = append(scenarios, sc)
			points = append(points, point{mix: mix.Name, coRunners: n, sc: sc})
		}
	}

	render := func(r *harness.Runner) *stats.Table {
		r.PrefetchScenarios(scenarios)
		tab := stats.NewTable(t.Title, "Mix", "Co-runners", "IPC", "L1-D fill cycles")
		add := func(mix string, n int, res sim.Result) {
			tab.AddRow(mix, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.3f", res.IPC()), fmt.Sprintf("%.1f", res.AvgDataFillCycles()))
		}
		add("solo", 0, r.RunScenario(solo).Cores[0])
		for _, p := range points {
			add(p.mix, p.coRunners, r.RunScenario(p.sc).Cores[0])
		}
		return tab
	}
	return compiledTable{id: t.ID, scenarios: scenarios, render: render}, nil
}

// compileRegionCDF expands the Figure 3 analysis (no simulations).
func compileRegionCDF(t Table) (compiledTable, error) {
	rc := t.RegionCDF
	wls := workloadsOrAll(rc.Workloads)
	blocks := blocksOrDefault(rc.Blocks)
	format := rc.Format
	if format == "" {
		format = "%.2f"
	}
	headers := []string{"Workload"}
	for _, d := range rc.Distances {
		headers = append(headers, fmt.Sprintf("d=%d", d))
	}
	headers = append(headers, fmt.Sprintf(">%d", workload.RegionDistBuckets-2))

	render := func(*harness.Runner) *stats.Table {
		tab := stats.NewTable(t.Title, headers...)
		for _, wl := range wls {
			prof := workload.MustGet(wl)
			cdf := workload.Analyze(prof.NewWalker(), blocks).RegionCDF()
			cells := make([]float64, 0, len(rc.Distances)+1)
			for _, d := range rc.Distances {
				cells = append(cells, cdf[d])
			}
			cells = append(cells, cdf[workload.RegionDistBuckets-1])
			tab.AddF(wl, format, cells...)
		}
		return tab
	}
	return compiledTable{id: t.ID, analysisCost: blocks * len(wls), render: render}, nil
}

// defaultSampledWorkload and defaultSampledMechs are the exact-vs-
// sampled comparison's defaults: Zeus under the no-prefetch baseline
// and the paper's own design.
const defaultSampledWorkload = "Zeus"

var defaultSampledMechs = []sim.Mechanism{sim.None, sim.Shotgun}

// compileSampled expands the exact-vs-sampled comparison: per
// mechanism, an exact config and the same config under the sampling
// schedule. The table reports the exact IPC, the sampled estimate
// (mean and 95% half-width), their relative error and the detailed-
// simulation coverage, and carries the sampled marker so machine-
// readable consumers never mistake the estimates for exact values.
func compileSampled(t Table) (compiledTable, error) {
	sd := t.Sampled
	wl := sd.Workload
	if wl == "" {
		wl = defaultSampledWorkload
	}
	mechs := defaultSampledMechs
	if sd.Mechanisms != nil {
		mechs = make([]sim.Mechanism, 0, len(sd.Mechanisms))
		for _, name := range sd.Mechanisms {
			m, err := parseMechanism(name)
			if err != nil {
				return compiledTable{}, err
			}
			mechs = append(mechs, m)
		}
	}
	schedule := sd.Sampling.Sim()
	type pair struct{ exact, sampled sim.Config }
	var pairs []pair
	var scenarios []sim.Scenario
	for _, m := range mechs {
		p := pair{exact: sim.Config{Workload: wl, Mechanism: m}}
		p.sampled = p.exact
		s := schedule
		p.sampled.Sampling = &s
		for _, cfg := range []sim.Config{p.exact, p.sampled} {
			sc := sim.SingleCore(cfg)
			if err := sc.Validate(); err != nil {
				return compiledTable{}, err
			}
			scenarios = append(scenarios, sc)
		}
		pairs = append(pairs, p)
	}
	render := func(r *harness.Runner) *stats.Table {
		r.PrefetchScenarios(scenarios)
		tab := stats.NewTable(t.Title,
			"Mechanism", "Exact IPC", "Sampled IPC", "±95% CI", "Rel err", "Coverage")
		for _, p := range pairs {
			exact := r.Run(p.exact)
			sampled := r.Run(p.sampled).Sampled
			relErr := math.Abs(sampled.IPC.Mean-exact.IPC()) / exact.IPC()
			tab.AddRow(string(p.exact.Mechanism),
				fmt.Sprintf("%.3f", exact.IPC()),
				fmt.Sprintf("%.3f", sampled.IPC.Mean),
				fmt.Sprintf("%.3f", sampled.IPC.HalfWidth),
				fmt.Sprintf("%.3f", relErr),
				fmt.Sprintf("%.3f", sampled.Coverage()))
		}
		tab.SetSampled()
		return tab
	}
	return compiledTable{id: t.ID, scenarios: scenarios, render: render}, nil
}

// compileBranchCoverage expands the Figure 4 analysis (no simulations).
func compileBranchCoverage(t Table) (compiledTable, error) {
	bc := t.BranchCoverage
	wls := workloadsOrAll(bc.Workloads)
	blocks := blocksOrDefault(bc.Blocks)

	render := func(*harness.Runner) *stats.Table {
		tab := stats.NewTable(t.Title, "Workload", "K", "all", "unconditional")
		for _, wl := range wls {
			prof := workload.MustGet(wl)
			a := workload.Analyze(prof.NewWalker(), blocks)
			for _, k := range bc.Points {
				tab.AddRow(wl, fmt.Sprintf("%d", k),
					fmt.Sprintf("%.3f", a.CoverageAt(k, nil)),
					fmt.Sprintf("%.3f", a.CoverageAt(k, workload.UncondFilter)))
			}
		}
		return tab
	}
	return compiledTable{id: t.ID, analysisCost: blocks * len(wls), render: render}, nil
}
