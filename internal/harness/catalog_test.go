// The catalog tests: the embedded spec catalog lists every experiment
// in the paper's order, and the tables a Runner assembles from it keep
// the shapes the paper reports. Cells are read back through
// stats.Table.Rows.
package harness_test

import (
	"io/fs"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"

	"shotgun"
	"shotgun/internal/harness"
	"shotgun/internal/spec"
	"shotgun/internal/stats"
)

// tinyScale keeps render tests fast.
func tinyScale() harness.Scale {
	return harness.Scale{WarmupInstr: 120_000, MeasureInstr: 150_000, Samples: 1}
}

// render assembles one catalog experiment's table on r.
func render(t *testing.T, r *harness.Runner, id string) *stats.Table {
	t.Helper()
	e, ok := spec.FindExperiment(id)
	if !ok {
		t.Fatalf("experiment %s missing from the catalog", id)
	}
	return e.Table(r)
}

// num parses one numeric cell.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// column returns the index of the named header.
func column(t *testing.T, tab *stats.Table, name string) int {
	t.Helper()
	i := slices.Index(tab.Headers(), name)
	if i < 0 {
		t.Fatalf("%q has no column %q (headers %v)", tab.Title(), name, tab.Headers())
	}
	return i
}

// catalogSpec parses one embedded spec file (a path under specs/).
func catalogSpec(t *testing.T, file string) spec.Spec {
	t.Helper()
	data, err := shotgun.Specs.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Parse(data)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return s
}

// TestExperimentsListComplete is the catalog test: the 18 experiments
// in the paper's presentation order, one per embedded spec file, and no
// spec pinning a scale (the golden corpus renders them at quick scale).
func TestExperimentsListComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig3", "fig4", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "interference",
		"interference64", "sampled", "delta", "clztage", "smt"}
	var got []string
	for _, e := range spec.Catalog() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("catalog order = %v, want %v", got, want)
	}

	files, err := fs.Glob(shotgun.Specs, "specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var fileIDs []string
	for _, f := range files {
		fileIDs = append(fileIDs, strings.TrimSuffix(path.Base(f), ".json"))
		if catalogSpec(t, f).Scale != nil {
			t.Errorf("%s pins a scale", f)
		}
	}
	slices.Sort(fileIDs)
	slices.Sort(want)
	if !slices.Equal(fileIDs, want) {
		t.Fatalf("embedded spec files %v, catalog ids %v", fileIDs, want)
	}
}

func TestTable1OrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := harness.NewRunner(harness.Scale{WarmupInstr: 400_000, MeasureInstr: 600_000, Samples: 1})
	tab := render(t, r, "table1")
	if len(tab.Rows()) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
	mpki := map[string]float64{}
	for _, row := range tab.Rows() {
		mpki[row[0]] = num(t, row[1])
	}
	// The paper's Table 1 ordering: Oracle > DB2 > Apache and
	// everything above Nutch.
	if !(mpki["Oracle"] > mpki["DB2"] && mpki["DB2"] > mpki["Apache"]) {
		t.Fatalf("OLTP ordering broken: %v", mpki)
	}
	for _, wl := range []string{"Streaming", "Apache", "Zeus", "Oracle", "DB2"} {
		if mpki[wl] <= mpki["Nutch"] {
			t.Fatalf("%s MPKI %.1f not above Nutch %.1f", wl, mpki[wl], mpki["Nutch"])
		}
	}
	if !strings.Contains(tab.Title(), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	tab := render(t, nil, "fig3")
	if len(tab.Rows()) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
	d10 := column(t, tab, "d=10")
	for _, row := range tab.Rows() {
		// Section 3.1: ~90% of accesses within 10 blocks of entry.
		if v := num(t, row[d10]); v < 0.8 {
			t.Fatalf("%s: cdf[10] = %.2f", row[0], v)
		}
	}
	if !strings.Contains(tab.Title(), "Figure 3") {
		t.Fatal("render missing title")
	}
}

func TestFigure4Shape(t *testing.T) {
	tab := render(t, nil, "fig4")
	all, uncond := column(t, tab, "all"), column(t, tab, "unconditional")
	for _, row := range tab.Rows() {
		if num(t, row[uncond]) < num(t, row[all]) {
			t.Fatalf("%s at K=%s: uncond coverage %s below all %s",
				row[0], row[1], row[uncond], row[all])
		}
		// Oracle's total working set must stay uncovered at 2K.
		if row[0] == "Oracle" && row[1] == "2048" && num(t, row[all]) > 0.85 {
			t.Fatalf("Oracle 2K coverage %s too concentrated", row[all])
		}
	}
}

func TestFigure6CoverageBounds(t *testing.T) {
	tab := render(t, harness.NewRunner(tinyScale()), "fig6")
	for _, row := range tab.Rows() {
		for i, cell := range row[1:] {
			if c := num(t, cell); c < 0 || c > 1 {
				t.Fatalf("%s/%s coverage %v", row[0], tab.Headers()[i+1], c)
			}
		}
	}
}

func TestFigure7ShotgunBeatsBoomerang(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := harness.NewRunner(harness.Scale{WarmupInstr: 500_000, MeasureInstr: 700_000, Samples: 1})
	tab := render(t, r, "fig7")
	shotgunCol, boomerangCol := column(t, tab, "shotgun"), column(t, tab, "boomerang")
	rows := tab.Rows()
	gmean := rows[len(rows)-1]
	if gmean[0] != "Gmean" {
		t.Fatalf("last row %v is not the Gmean row", gmean)
	}
	shotgun, boomerang := num(t, gmean[shotgunCol]), num(t, gmean[boomerangCol])
	if shotgun <= boomerang {
		t.Fatalf("gmean: shotgun %.3f not above boomerang %.3f", shotgun, boomerang)
	}
	if shotgun <= 1.05 {
		t.Fatalf("shotgun gmean speedup %.3f implausibly low", shotgun)
	}
}

func TestFigure12Renders(t *testing.T) {
	tab := render(t, harness.NewRunner(tinyScale()), "fig12")
	if len(tab.Rows()) != 7 { // 6 workloads + gmean
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
	if !strings.Contains(tab.String(), "C-BTB") {
		t.Fatal("render broken")
	}
}

func TestFigure13Renders(t *testing.T) {
	tab := render(t, harness.NewRunner(tinyScale()), "fig13")
	// Oracle and DB2, each under Boomerang and Shotgun, across the
	// 512..8K budget columns.
	if len(tab.Rows()) != 2*2 {
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
	for _, row := range tab.Rows() {
		if len(row) != 2+5 {
			t.Fatalf("row %v: want workload, mechanism and 5 budgets", row)
		}
	}
	if !strings.Contains(tab.Title(), "Figure 13") {
		t.Fatal("render broken")
	}
}

// TestVariantsComplete: Figures 8/9 sweep all five spatial-region
// mechanisms of Section 6.3, Figures 10/11 the three-variant subset.
func TestVariantsComplete(t *testing.T) {
	for id, want := range map[string]int{"fig8": 5, "fig9": 5, "fig10": 3, "fig11": 3} {
		s := catalogSpec(t, "specs/"+id+".json")
		if got := len(s.Tables[0].Grid.Columns); got != want {
			t.Errorf("%s: %d variants, want %d", id, got, want)
		}
	}
}

// TestInterferenceRenders runs a custom co-runner sweep — any ladder
// other than the catalog's is one spec file away.
func TestInterferenceRenders(t *testing.T) {
	c, err := spec.Compile([]byte(`{
	  "version": 1, "name": "custom-interference",
	  "tables": [{"id": "interference", "title": "Interference: custom sweep",
	    "interference": {
	      "co_runners": [1, 2],
	      "mixes": [
	        {"name": "shotgun-8bit", "co_runner": {"mechanism": "shotgun"}},
	        {"name": "entire-region", "co_runner": {"mechanism": "shotgun", "region_mode": "entire", "footprint_bits": 32}}
	      ]}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	tab := c.Experiments()[0].Table(harness.NewRunner(tinyScale()))
	rows := tab.Rows()
	if len(rows) != 1+2*2 {
		t.Fatalf("rows = %d, want %d", len(rows), 1+2*2)
	}
	if rows[0][0] != "solo" || rows[0][1] != "0" {
		t.Fatalf("missing solo anchor row: %v", rows[0])
	}
	for _, row := range rows {
		if num(t, row[2]) <= 0 || num(t, row[3]) <= 0 {
			t.Fatalf("degenerate row: %v", row)
		}
	}
	if !strings.Contains(tab.Title(), "Interference") {
		t.Fatal("render missing title")
	}
}

// TestParallelDeterminism is the runner's correctness contract on real
// tables: the renders of a multi-worker runner are byte-identical to a
// 1-worker (strictly serial) runner's. Run under -race in CI, it also
// exercises the shared program/decoder artifacts and the single-flight
// cache concurrently.
func TestParallelDeterminism(t *testing.T) {
	scale := harness.QuickScale()
	serial := harness.NewRunnerWorkers(scale, 1)
	// Force real concurrency even on single-CPU hosts.
	parallel := harness.NewRunnerWorkers(scale, 4)
	for _, id := range []string{"table1", "fig7"} {
		s, p := render(t, serial, id).String(), render(t, parallel, id).String()
		if s != p {
			t.Errorf("%s differs between 1-worker and 4-worker runners:\nserial:\n%s\nparallel:\n%s", id, s, p)
		}
	}
}
