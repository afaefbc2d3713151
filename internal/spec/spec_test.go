package spec

import (
	"fmt"
	"strings"
	"testing"

	"shotgun/internal/harness"
	"shotgun/internal/sim"
)

// goodSpec is a small valid document exercising every clause a grid
// can carry.
const goodSpec = `{
  "version": 1,
  "name": "good",
  "desc": "a valid sweep",
  "tables": [
    {
      "id": "g",
      "title": "grid",
      "grid": {
        "workloads": ["Oracle", "DB2"],
        "base": {"mechanism": "shotgun"},
        "columns": [
          {"name": "8-bit", "config": {"region_mode": "vector", "footprint_bits": 8}},
          {"name": "entire", "config": {"region_mode": "entire", "footprint_bits": 32}}
        ],
        "metric": "speedup",
        "summary": "gmean"
      }
    },
    {
      "id": "i",
      "title": "interference",
      "interference": {
        "co_runners": [1, 3],
        "mixes": [{"name": "polite", "co_runner": {"mechanism": "shotgun"}}]
      }
    },
    {
      "id": "cdf",
      "title": "cdf",
      "region_cdf": {"workloads": ["Oracle"], "distances": [0, 2, 4]}
    }
  ]
}`

func TestParseAndCompileGoodSpec(t *testing.T) {
	c, err := Compile([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	exps := c.Experiments()
	if len(exps) != 3 {
		t.Fatalf("experiments = %d, want 3", len(exps))
	}
	for i, id := range []string{"g", "i", "cdf"} {
		if exps[i].ID != id {
			t.Fatalf("experiment %d id = %q, want %q", i, exps[i].ID, id)
		}
	}
	// Grid: 2 workloads × (1 baseline + 2 cells) = 6 scenarios;
	// interference: solo + 2 counts × 1 mix = 3. The analysis adds none.
	if got := len(c.Scenarios()); got != 9 {
		t.Fatalf("scenarios = %d, want 9", got)
	}
	if exps[2].Scenarios != nil {
		t.Fatal("analysis table declared scenarios")
	}
	// Expansion is deterministic: two compiles agree scenario for
	// scenario.
	c2, err := Compile([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	a, b := c.Scenarios(), c2.Scenarios()
	for i := range a {
		if string(a[i].CanonicalBytes()) != string(b[i].CanonicalBytes()) {
			t.Fatalf("scenario %d differs across compiles", i)
		}
	}
}

// TestParseRejections drives every structured failure path through the
// public Parse/Compile surface and checks the error names the problem.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"malformed json", `{"version":`, "decode"},
		{"trailing data", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","region_cdf":{"distances":[0]}}]} {}`, "trailing"},
		{"unknown top-level field", `{"version":1,"name":"x","bogus":1,"tables":[]}`, "bogus"},
		{"unknown nested field", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{"colums":[]}}]}`, "colums"},
		{"unknown config field", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechansim":"none"}}],"metric":"ipc"}}]}`, "mechansim"},
		{"bad version", `{"version":7,"name":"x","tables":[]}`, "version 7"},
		{"missing name", `{"version":1,"tables":[]}`, "name"},
		{"no tables", `{"version":1,"name":"x","tables":[]}`, "at least one table"},
		{"duplicate table id", `{"version":1,"name":"x","tables":[
			{"id":"t","title":"t","region_cdf":{"distances":[0]}},
			{"id":"t","title":"t","region_cdf":{"distances":[0]}}]}`, "duplicate table id"},
		{"two kinds on one table", `{"version":1,"name":"x","tables":[{"id":"t","title":"t",
			"region_cdf":{"distances":[0]},
			"branch_coverage":{"points":[1]}}]}`, "exactly one"},
		{"no kind", `{"version":1,"name":"x","tables":[{"id":"t","title":"t"}]}`, "exactly one"},
		{"zero-sample scale", `{"version":1,"name":"x",
			"scale":{"warmup_instr":1,"measure_instr":1,"samples":0},
			"tables":[{"id":"t","title":"t","region_cdf":{"distances":[0]}}]}`, "samples"},
		{"zero-row grid", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"workloads":[],"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc"}}]}`, "workloads"},
		{"zero-column grid", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[],"metric":"ipc"}}]}`, "at least one column"},
		{"duplicate column", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"none"}},{"name":"c","config":{"mechanism":"fdip"}}],
			"metric":"ipc"}}]}`, "duplicate column"},
		{"duplicate row", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"rows":[{"name":"r","config":{}},{"name":"r","config":{}}],"rows_label":"R",
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc"}}]}`, "duplicate row"},
		{"duplicate workload", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"workloads":["Oracle","Oracle"],
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc"}}]}`, "duplicate workload"},
		{"unknown workload", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"workloads":["NoSuch"],
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc"}}]}`, "NoSuch"},
		{"unknown metric", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"speed"}}]}`, "unknown metric"},
		{"bad format verb", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc","format":"%s"}}]}`, "format"},
		{"bad summary", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc","summary":"median"}}]}`, "summary"},
		{"rows without label", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"rows":[{"name":"r","config":{}}],
			"columns":[{"name":"c","config":{"mechanism":"none"}}],"metric":"ipc"}}]}`, "rows_label"},
		{"bad mechanism spelling", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"warp"}}],"metric":"ipc"}}]}`, "warp"},
		{"bad region mode", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"shotgun","region_mode":"spiral"}}],"metric":"ipc"}}]}`, "spiral"},
		{"bad footprint bits", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
			"columns":[{"name":"c","config":{"mechanism":"shotgun","footprint_bits":16}}],"metric":"ipc"}}]}`, "8 or 32"},
		{"duplicate mix", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
			"co_runners":[1],"mixes":[
			{"name":"m","co_runner":{"mechanism":"shotgun"}},
			{"name":"m","co_runner":{"mechanism":"fdip"}}]}}]}`, "duplicate mix"},
		{"non-increasing co-runners", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
			"co_runners":[3,1],"mixes":[{"name":"m","co_runner":{"mechanism":"shotgun"}}]}}]}`, "strictly increasing"},
		{"too many cores", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
			"co_runners":[299],"mixes":[{"name":"m","co_runner":{"mechanism":"shotgun"}}]}}]}`, "mesh"},
		{"one core past the mesh", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
			"co_runners":[256],"mixes":[{"name":"m","co_runner":{"mechanism":"shotgun"}}]}}]}`, "mesh"},
		{"no co-runner counts", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
			"co_runners":[],"mixes":[{"name":"m","co_runner":{"mechanism":"shotgun"}}]}}]}`, "co_runners must not be empty"},
		{"no mixes", `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
			"co_runners":[1],"mixes":[]}}]}`, "mixes must not be empty"},
		{"non-increasing distances", `{"version":1,"name":"x","tables":[{"id":"t","title":"t",
			"region_cdf":{"distances":[4,2]}}]}`, "strictly increasing"},
		{"distance out of range", `{"version":1,"name":"x","tables":[{"id":"t","title":"t",
			"region_cdf":{"distances":[99]}}]}`, "out of range"},
		{"non-increasing points", `{"version":1,"name":"x","tables":[{"id":"t","title":"t",
			"branch_coverage":{"points":[2048,1024]}}]}`, "strictly increasing"},
		{"analysis blocks over cap", `{"version":1,"name":"x","tables":[{"id":"t","title":"t",
			"region_cdf":{"distances":[0],"blocks":2000000000}}]}`, "cap"},
		{"coverage blocks over cap", `{"version":1,"name":"x","tables":[{"id":"t","title":"t",
			"branch_coverage":{"points":[1024],"blocks":2000000000}}]}`, "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileOverCap proves the expansion cap holds both per table and
// across tables.
func TestCompileOverCap(t *testing.T) {
	// One table whose axis product alone exceeds the cap.
	big := Spec{Version: Version, Name: "big", Tables: []Table{{
		ID: "t", Title: "t",
		Grid: &Grid{
			Base:    Config{Mechanism: "none"},
			Metric:  "ipc",
			Rows:    manyAxes("r", 120),
			Columns: manyAxes("c", 6),
			// 6 workloads × 120 rows × 6 columns = 4320 cells > 4096.
			RowsLabel: "R",
		},
	}}}
	if _, err := big.Compile(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap single table: err = %v", err)
	}

	// Tables that fit individually but overflow together.
	tables := make([]Table, 0, 8)
	for i := 0; i < 8; i++ {
		tables = append(tables, Table{
			ID: fmt.Sprintf("t%d", i), Title: "t",
			Grid: &Grid{
				Base:      Config{Mechanism: "none"},
				Metric:    "ipc",
				Rows:      manyAxes("r", 15),
				RowsLabel: "R",
				Columns:   manyAxes("c", 6),
			},
		})
	}
	multi := Spec{Version: Version, Name: "multi", Tables: tables}
	if _, err := multi.Compile(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap across tables: err = %v", err)
	}
}

// manyAxes builds n distinct no-op axis points.
func manyAxes(prefix string, n int) []Axis {
	out := make([]Axis, n)
	for i := range out {
		out[i] = Axis{Name: fmt.Sprintf("%s%d", prefix, i)}
	}
	return out
}

// TestCompileCellErrorsNameTheCell proves sim-level rejection of a
// composed cell surfaces with spec context.
func TestCompileCellErrorsNameTheCell(t *testing.T) {
	doc := `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
		"columns":[{"name":"tiny-btb","config":{"mechanism":"shotgun","btb_entries":7}}],
		"metric":"ipc"}}]}`
	_, err := Compile([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "tiny-btb") {
		t.Fatalf("err = %v, want the failing column named", err)
	}
}

// TestInterferenceDefaults checks the sweep's documented defaults:
// Oracle workload, shotgun primary and co-runners.
func TestInterferenceDefaults(t *testing.T) {
	doc := `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
		"co_runners":[1],"mixes":[{"name":"m","co_runner":{}}]}}]}`
	c, err := Compile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	scs := c.Scenarios()
	if len(scs) != 2 {
		t.Fatalf("scenarios = %d, want 2 (solo + one point)", len(scs))
	}
	for _, sc := range scs {
		for _, cfg := range sc.Cores {
			if cfg.Workload != "Oracle" || cfg.Mechanism != sim.Shotgun {
				t.Fatalf("core defaults wrong: %+v", cfg)
			}
		}
	}
}

// TestRenderSmoke drives every renderer at a tiny scale: shapes, row
// counts, and the summary row must come out as declared. (The catalog's
// byte-exact renders are pinned at quick scale by the root package's
// TestGolden.)
func TestRenderSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("renders run real simulations")
	}
	r := harness.NewRunnerWorkers(harness.Scale{WarmupInstr: 40_000, MeasureInstr: 60_000, Samples: 1}, 2)

	c, err := Compile([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]int{
		"g":   3, // 2 workloads + Gmean
		"i":   3, // solo + 2 co-runner counts
		"cdf": 1,
	}
	for _, e := range c.Experiments() {
		tab := e.Table(r)
		if got := len(tab.Rows()); got != wantRows[e.ID] {
			t.Errorf("%s: %d rows, want %d", e.ID, got, wantRows[e.ID])
		}
	}

	// A rows-axis grid with the Figure 12 C-BTB knob and a branch-
	// coverage analysis, exercising the remaining render shapes.
	axes := `{
	  "version": 1, "name": "axes",
	  "tables": [
	    {"id": "rowsgrid", "title": "rows", "grid": {
	      "workloads": ["Nutch"],
	      "rows": [
	        {"name": "shotgun", "config": {"mechanism": "shotgun"}},
	        {"name": "small-cbtb", "config": {"mechanism": "shotgun", "cbtb_entries": 64}}
	      ],
	      "rows_label": "Variant",
	      "columns": [
	        {"name": "1K", "config": {"btb_entries": 1024}},
	        {"name": "2K", "config": {"btb_entries": 2048}}
	      ],
	      "metric": "speedup"}},
	    {"id": "cov", "title": "cov", "branch_coverage": {
	      "workloads": ["Nutch"], "blocks": 50000, "points": [512, 1024]}}
	  ]
	}`
	ca, err := Compile([]byte(axes))
	if err != nil {
		t.Fatal(err)
	}
	exps := ca.Experiments()
	grid := exps[0].Table(r)
	if got := len(grid.Rows()); got != 2 {
		t.Errorf("rows-axis grid: %d rows, want 2 (1 workload x 2 rows)", got)
	}
	if h := grid.Headers(); len(h) != 4 || h[1] != "Variant" {
		t.Errorf("rows-axis headers = %v", h)
	}
	cov := exps[1].Table(r)
	if got := len(cov.Rows()); got != 2 {
		t.Errorf("branch coverage: %d rows, want 2 (1 workload x 2 points)", got)
	}
}

// TestCBTBComposesWithLaterBudget: cbtb_entries must resolve against
// the FINAL composed budget, so a base-layer cbtb_entries combined
// with per-column btb_entries derives different Shotgun sizes per
// column (regression: sizes used to be pinned at the layer where
// cbtb_entries appeared, silently ignoring later budget overrides).
func TestCBTBComposesWithLaterBudget(t *testing.T) {
	doc := `{"version":1,"name":"x","tables":[{"id":"t","title":"t","grid":{
		"workloads":["Oracle"],
		"base":{"mechanism":"shotgun","cbtb_entries":64},
		"columns":[
			{"name":"1K","config":{"btb_entries":1024}},
			{"name":"4K","config":{"btb_entries":4096}}],
		"metric":"ipc"}}]}`
	c, err := Compile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	scs := c.Scenarios() // baseline, 1K cell, 4K cell
	if len(scs) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(scs))
	}
	small, big := scs[1].Cores[0], scs[2].Cores[0]
	if small.ShotgunSizes == nil || big.ShotgunSizes == nil {
		t.Fatal("cbtb_entries did not materialize ShotgunSizes")
	}
	if small.ShotgunSizes.CEntries != 64 || big.ShotgunSizes.CEntries != 64 {
		t.Fatalf("CEntries = %d/%d, want 64/64", small.ShotgunSizes.CEntries, big.ShotgunSizes.CEntries)
	}
	if small.ShotgunSizes.UEntries == big.ShotgunSizes.UEntries {
		t.Fatalf("both columns derived identical U-BTB sizes (%d) — the column budget was ignored",
			small.ShotgunSizes.UEntries)
	}
}

// TestInterferenceOverCap: the fan-out cap must reject the sweep
// before materializing it (mixes × counts points, each holding up to
// MaxCores config copies).
func TestInterferenceOverCap(t *testing.T) {
	mixes := make([]Mix, 700)
	for i := range mixes {
		mixes[i] = Mix{Name: fmt.Sprintf("m%d", i), CoRunner: Config{Mechanism: "shotgun"}}
	}
	s := Spec{Version: Version, Name: "big", Tables: []Table{{
		ID: "t", Title: "t",
		Interference: &Interference{CoRunners: []int{1, 2, 3, 4, 5, 6}, Mixes: mixes},
	}}}
	// 700 mixes × 6 counts = 4200 points > 4096.
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap interference: err = %v", err)
	}
}

// TestAnalysisCostCaps: the per-table blocks cap must not be
// multipliable by table count, and the table count itself is bounded.
func TestAnalysisCostCaps(t *testing.T) {
	tables := make([]Table, 3)
	for i := range tables {
		tables[i] = Table{
			ID: fmt.Sprintf("a%d", i), Title: "t",
			RegionCDF: &RegionCDF{Blocks: MaxAnalysisBlocks, Distances: []int{0}},
		}
	}
	// 3 tables × 10M blocks × 6 workloads = 180M > MaxAnalysisCost.
	s := Spec{Version: Version, Name: "x", Tables: tables}
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("aggregated analysis cost accepted: err = %v", err)
	}

	many := make([]Table, MaxTables+1)
	for i := range many {
		many[i] = Table{ID: fmt.Sprintf("t%d", i), Title: "t",
			RegionCDF: &RegionCDF{Distances: []int{0}}}
	}
	s = Spec{Version: Version, Name: "x", Tables: many}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("table-count cap missing: err = %v", err)
	}
}

// TestInterferenceSoloCarriesLLCOverride: llc_bytes applies to the
// solo reference too — anchoring contended rows against a differently
// sized cache would misstate every delta.
func TestInterferenceSoloCarriesLLCOverride(t *testing.T) {
	doc := `{"version":1,"name":"x","tables":[{"id":"t","title":"t","interference":{
		"co_runners":[1],"llc_bytes":131072,
		"mixes":[{"name":"m","co_runner":{"mechanism":"shotgun"}}]}}]}`
	c, err := Compile([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range c.Scenarios() {
		if sc.LLCSizeBytes != 131072 {
			t.Fatalf("scenario %d LLC = %d, want the 131072 override (solo included)", i, sc.LLCSizeBytes)
		}
	}
}
