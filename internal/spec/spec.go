// Package spec makes parameter sweeps first-class data: a versioned,
// declarative JSON format that describes grids over sim.Config fields,
// multi-core interference mixes, sampled-vs-exact comparisons and trace
// analyses, plus a compiler that expands a spec into canonical
// sim.Scenario sets and harness.Experiment values. The full format
// reference lives in docs/SPEC.md.
//
// The paper's own evaluation is nothing but specs: the files under
// specs/, embedded by the root package, compile into Catalog — every
// reproduced table and figure, in presentation order. Adding an
// experiment means adding one spec file, its golden render, and its ID
// in the catalog order.
//
// The contract that makes specs safe to accept from disk or HTTP:
//
//   - parsing is strict — unknown fields, wrong versions, and malformed
//     JSON all error (and never panic: FuzzSpecParse) — and Compile is
//     the one check: each table kind's compiler checks its own fields
//     as it expands them;
//   - expansion is capped (MaxScenarios) and deterministic — the same
//     spec always expands to the same scenarios in the same order, so
//     renders are stable at any worker count;
//   - expanded scenarios are ordinary normalized sim.Scenario values,
//     so spec-driven jobs share one content identity (memo key, store
//     record, cluster job) with the catalog and with each other.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"shotgun/internal/harness"
	"shotgun/internal/sim"
)

// Version is the spec-format generation this build reads. Parse rejects
// any other value, so a future format change cannot be silently
// misinterpreted by an old binary (or vice versa).
const Version = 1

// MaxScenarios caps how many scenarios one spec may expand to, counted
// before deduplication. Specs arrive from disk and HTTP; without a cap
// a small grid declaration could fan out into an unbounded work list.
const MaxScenarios = 4096

// MaxAnalysisBlocks caps one trace analysis's length. The analysis
// kinds expand to zero scenarios, so MaxScenarios never touches them —
// yet their renders walk `blocks` basic blocks per workload
// synchronously, which needs its own bound against a tiny hostile
// document buying unbounded CPU (the paper's analyses use 400000).
const MaxAnalysisBlocks = 10_000_000

// MaxAnalysisCost caps the SUM of blocks × workloads across a spec's
// analysis tables, so the per-table cap cannot be multiplied back into
// unbounded work by packing many tables (the paper's two analyses
// total ~3.2M).
const MaxAnalysisCost = 120_000_000

// MaxTables bounds a spec's table count — far above the 18-table paper
// catalog, low enough that per-table overheads can't be farmed.
const MaxTables = 64

// Spec is one declarative sweep: a named set of output tables over a
// shared (optional) simulation scale.
type Spec struct {
	// Version must equal Version.
	Version int `json:"version"`
	// Name identifies the sweep (reports, logs).
	Name string `json:"name"`
	// Desc is an optional one-line description.
	Desc string `json:"desc,omitempty"`
	// Scale, when present, pins the simulation scale. When absent the
	// runner's scale applies; the catalog's specs never pin one, so the
	// golden corpus renders them at quick scale.
	Scale *harness.Scale `json:"scale,omitempty"`
	// Tables lists the output tables, each expanding to its own
	// scenario set.
	Tables []Table `json:"tables"`
}

// Table declares one output table. Exactly one of the kind fields
// (Grid, Interference, RegionCDF, BranchCoverage, Sampled) must be set.
type Table struct {
	// ID is the table's experiment id (unique within the spec).
	ID string `json:"id"`
	// Title is the rendered table's title line.
	Title string `json:"title"`

	// Grid is a (workload × column) metric grid over single-core
	// configs, optionally crossed with a second row axis.
	Grid *Grid `json:"grid,omitempty"`
	// Interference is a multi-core co-runner sweep over one shared
	// uncore.
	Interference *Interference `json:"interference,omitempty"`
	// RegionCDF is the Figure 3 trace analysis (no simulations).
	RegionCDF *RegionCDF `json:"region_cdf,omitempty"`
	// BranchCoverage is the Figure 4 trace analysis (no simulations).
	BranchCoverage *BranchCoverage `json:"branch_coverage,omitempty"`
	// Sampled is the exact-vs-sampled comparison under periodic
	// sampling. The sampling object lives only here: strict parsing
	// rejects it on every other kind (the analysis kinds run no
	// simulations to sample).
	Sampled *Sampled `json:"sampled,omitempty"`
}

// Config is a set of per-cell overrides onto sim.Config. Zero-valued
// fields are "inherit"; enums are spelled as strings so that "unset"
// and "explicitly the default" stay distinguishable.
type Config struct {
	// Workload overrides the cell's workload (grids normally inherit
	// the row workload; interference cores inherit the sweep workload).
	Workload string `json:"workload,omitempty"`
	// Mechanism is the control-flow delivery scheme (sim.Mechanisms).
	Mechanism string `json:"mechanism,omitempty"`
	// BTBEntries is the conventional BTB budget (default 2048).
	BTBEntries int `json:"btb_entries,omitempty"`
	// RegionMode is Shotgun's region-prefetch variant: vector, none,
	// entire, or 5blocks.
	RegionMode string `json:"region_mode,omitempty"`
	// FootprintBits is the footprint vector width: 8 or 32.
	FootprintBits int `json:"footprint_bits,omitempty"`
	// CBTBEntries overrides the C-BTB capacity within the budget-derived
	// Shotgun sizes (the Figure 12 sensitivity knob).
	CBTBEntries int `json:"cbtb_entries,omitempty"`
	// BPU is the direction-predictor variant: tage or clz.
	BPU string `json:"bpu,omitempty"`
	// Contexts is the multi-context front-end width (1..sim.MaxContexts;
	// 1 is the classic single-context core).
	Contexts int `json:"contexts,omitempty"`
}

// Axis is one named point of a grid axis: the label rendered in the
// table plus the config overrides the point applies.
type Axis struct {
	Name   string `json:"name"`
	Config Config `json:"config"`
}

// Grid declares a metric grid: rows are workloads (optionally crossed
// with Rows), columns are Axis points, and every cell runs the
// composed config and reports Metric.
type Grid struct {
	// Workloads lists the row workloads; absent means the full suite in
	// presentation order. An explicitly empty list is an error (a grid
	// must expand to at least one row).
	Workloads []string `json:"workloads,omitempty"`
	// Base is applied to every cell before the row/column overrides.
	Base Config `json:"base,omitempty"`
	// Rows is an optional second row axis crossed with Workloads; each
	// (workload, row) pair renders one table row.
	Rows []Axis `json:"rows,omitempty"`
	// RowsLabel is the header of the Rows axis column (required with
	// Rows).
	RowsLabel string `json:"rows_label,omitempty"`
	// Columns are the grid's column points (at least one).
	Columns []Axis `json:"columns"`
	// Metric names the reported value: ipc, speedup, stall_coverage,
	// prefetch_accuracy, data_fill_cycles, btb_mpki, or l1i_mpki.
	Metric string `json:"metric"`
	// Format is the cell format verb (%.Nf; default "%.3f").
	Format string `json:"format,omitempty"`
	// Baseline overrides the per-workload baseline config relative
	// metrics (speedup, stall_coverage) divide by; default
	// {"mechanism": "none"}. Baseline scenarios are always part of the
	// grid's scenario set.
	Baseline *Config `json:"baseline,omitempty"`
	// Summary appends an aggregate row: "gmean", "mean", or "" (none).
	Summary string `json:"summary,omitempty"`
	// SummaryLabel labels the aggregate row (default "Gmean"/"Avg").
	SummaryLabel string `json:"summary_label,omitempty"`
}

// Interference declares a co-runner sweep: core 0 runs Primary, and
// for every (mix, count) point the scenario adds count copies of the
// mix's co-runner config over one shared LLC and NoC. The solo
// (single-core) reference row always leads the table.
type Interference struct {
	// Workload is the default workload of every core (default Oracle).
	Workload string `json:"workload,omitempty"`
	// Primary configures core 0 (default {"mechanism": "shotgun"}).
	Primary Config `json:"primary,omitempty"`
	// CoRunners lists the swept co-runner counts (each >= 1, strictly
	// increasing; the scenario size is count+1).
	CoRunners []int `json:"co_runners"`
	// Mixes lists the co-runner populations.
	Mixes []Mix `json:"mixes"`
	// LLCBytes overrides the scenarios' shared LLC capacity (0 derives
	// the per-core share, like sim.Scenario.LLCSizeBytes).
	LLCBytes int `json:"llc_bytes,omitempty"`
}

// Mix names one co-runner population.
type Mix struct {
	Name     string `json:"name"`
	CoRunner Config `json:"co_runner"`
}

// RegionCDF declares the Figure 3 analysis: cumulative access
// probability vs block distance from region entry, per workload.
type RegionCDF struct {
	// Workloads lists the analyzed workloads; absent means the full
	// suite.
	Workloads []string `json:"workloads,omitempty"`
	// Blocks is the analyzed trace length (default 400000).
	Blocks int `json:"blocks,omitempty"`
	// Distances are the sampled distance columns (strictly increasing,
	// within the histogram's bucket range). The overflow column (">N")
	// is always appended.
	Distances []int `json:"distances"`
	// Format is the cell format verb (default "%.2f").
	Format string `json:"format,omitempty"`
}

// BranchCoverage declares the Figure 4 analysis: dynamic-branch
// coverage of the K hottest static branches.
type BranchCoverage struct {
	// Workloads lists the analyzed workloads; absent means the full
	// suite.
	Workloads []string `json:"workloads,omitempty"`
	// Blocks is the analyzed trace length (default 400000).
	Blocks int `json:"blocks,omitempty"`
	// Points are the sampled K values (strictly increasing, positive).
	Points []int `json:"points"`
}

// Sampled declares the exact-vs-sampled comparison table: each listed
// mechanism runs the workload both exactly and under the periodic
// sampling schedule, and the table reports the sampled IPC estimate
// (mean ± 95% CI) next to the exact IPC with the measured relative
// error.
type Sampled struct {
	// Workload is the compared workload (default Zeus).
	Workload string `json:"workload,omitempty"`
	// Mechanisms lists the compared mechanisms; absent means none and
	// shotgun.
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Sampling is the periodic-sampling schedule (required).
	Sampling Sampling `json:"sampling"`
}

// Sampling is the spec spelling of sim.Sampling: the periodic-sampling
// schedule in trace blocks plus the statistical stopping rule.
type Sampling struct {
	// Period is the sampling period P in trace blocks (required).
	Period uint64 `json:"period"`
	// Warmup is the detailed warm-up W before each measured unit.
	Warmup uint64 `json:"warmup,omitempty"`
	// Unit is the measured detailed unit length U (required).
	Unit uint64 `json:"unit"`
	// FuncWarm bounds the functional-warming window; 0 warms the whole
	// P−W−U gap (pure SMARTS).
	FuncWarm uint64 `json:"func_warm,omitempty"`
	// Units is the baseline measured-unit count.
	Units int `json:"units,omitempty"`
	// TargetCI, when non-zero, escalates units until the relative 95%
	// half-width reaches it (SMARTS targets 0.03).
	TargetCI float64 `json:"target_ci,omitempty"`
	// MaxUnits caps adaptive escalation.
	MaxUnits int `json:"max_units,omitempty"`
}

// Sim converts to the simulator's sampling block.
func (s Sampling) Sim() sim.Sampling {
	return sim.Sampling{
		PeriodBlocks:   s.Period,
		WarmupBlocks:   s.Warmup,
		UnitBlocks:     s.Unit,
		FuncWarmBlocks: s.FuncWarm,
		Units:          s.Units,
		TargetCI:       s.TargetCI,
		MaxUnits:       s.MaxUnits,
	}
}

// Parse decodes a spec and checks its document-level rules (checkDoc).
// Decoding is strict: unknown fields anywhere in the document are
// errors, so a typoed knob can never silently run at its default. The
// tables' contents are checked where Compile expands them.
func Parse(data []byte) (Spec, error) {
	s, err := decode(data)
	if err != nil {
		return Spec{}, err
	}
	if err := s.checkDoc(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decode is Parse's strict JSON decoding alone.
func decode(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: decode: %w", err)
	}
	// Trailing garbage after the document is as suspect as an unknown
	// field.
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the spec document")
	}
	return s, nil
}

// checkDoc applies the document-level rules: the version, the name,
// the scale pin, and the table list's size, ids and titles.
func (s Spec) checkDoc() error {
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("spec: name is required")
	}
	if s.Scale != nil {
		if s.Scale.WarmupInstr == 0 || s.Scale.MeasureInstr == 0 {
			return fmt.Errorf("spec: scale requires positive warmup_instr and measure_instr")
		}
		if s.Scale.Samples <= 0 {
			return fmt.Errorf("spec: scale.samples must be positive (got %d)", s.Scale.Samples)
		}
	}
	if len(s.Tables) == 0 {
		return fmt.Errorf("spec: at least one table is required")
	}
	if len(s.Tables) > MaxTables {
		return fmt.Errorf("spec: %d tables exceeds the %d cap", len(s.Tables), MaxTables)
	}
	seen := make(map[string]bool, len(s.Tables))
	for i, t := range s.Tables {
		if t.ID == "" {
			return fmt.Errorf("spec: table %d: id is required", i)
		}
		if seen[t.ID] {
			return fmt.Errorf("spec: duplicate table id %q", t.ID)
		}
		seen[t.ID] = true
		if t.Title == "" {
			return fmt.Errorf("spec: table %q: title is required", t.ID)
		}
	}
	return nil
}
