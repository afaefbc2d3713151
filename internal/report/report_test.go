package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shotgun/internal/harness"
	"shotgun/internal/spec"
	"shotgun/internal/stats"
)

func sampleTable() *stats.Table {
	t := stats.NewTable("Table X: sample", "Workload", "IPC")
	t.AddRow("Oracle", "1.234")
	t.AddRow("DB2", "0.987")
	return t
}

func TestFromStatsMirrorsTextTable(t *testing.T) {
	st := sampleTable()
	tab := FromStats("tablex", st)
	if tab.ID != "tablex" || tab.Title != "Table X: sample" {
		t.Fatalf("identity wrong: %+v", tab)
	}
	if len(tab.Columns) != 2 || tab.Columns[0] != "Workload" {
		t.Fatalf("columns wrong: %v", tab.Columns)
	}
	if len(tab.Rows) != 2 || tab.Rows[1][1] != "0.987" {
		t.Fatalf("rows wrong: %v", tab.Rows)
	}
	// Every cell must appear verbatim in the text render too.
	text := st.String()
	for _, row := range tab.Rows {
		for _, cell := range row {
			if !strings.Contains(text, cell) {
				t.Fatalf("cell %q missing from text render", cell)
			}
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rep := Report{Version: Version, Scale: "quick",
		Tables: []Table{FromStats("tablex", sampleTable())}}
	var b strings.Builder
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.Scale != "quick" {
		t.Fatalf("header wrong: %+v", got)
	}
	if len(got.Tables) != 1 || got.Tables[0].Rows[0][0] != "Oracle" {
		t.Fatalf("tables wrong: %+v", got.Tables)
	}
}

func TestWriteCSV(t *testing.T) {
	rep := Report{Version: Version, Tables: []Table{
		FromStats("a", sampleTable()),
		FromStats("b", sampleTable()),
	}}
	var b strings.Builder
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "table,a,") != 1 || strings.Count(out, "table,b,") != 1 {
		t.Fatalf("missing table markers:\n%s", out)
	}
	if !strings.Contains(out, "Oracle,1.234") {
		t.Fatalf("missing data row:\n%s", out)
	}
	if !strings.Contains(out, "\n\ntable,b") {
		t.Fatalf("tables not blank-line separated:\n%s", out)
	}
}

// TestFromExperimentsAnalysisOnly exercises the catalog integration on
// the two pure trace analyses (no timing simulation, so it's fast).
func TestFromExperimentsAnalysisOnly(t *testing.T) {
	var exps []harness.Experiment
	for _, id := range []string{"fig3", "fig4"} {
		e, ok := spec.FindExperiment(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		exps = append(exps, e)
	}
	rep := FromExperiments(nil, exps, "quick")
	if len(rep.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("table %s empty: %+v", tab.ID, tab)
		}
	}
	if rep.Tables[0].ID != "fig3" || rep.Tables[1].ID != "fig4" {
		t.Fatalf("ids wrong: %s %s", rep.Tables[0].ID, rep.Tables[1].ID)
	}
}

func TestWriteBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ci.json")
	if err := WriteBenchFile(path, Bench{
		Name: "BenchmarkSimThroughput", Instructions: 1_000_000,
		Seconds: 0.5, InstrPerSec: 2_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []Bench
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Version != Version || got[0].InstrPerSec != 2_000_000 {
		t.Fatalf("bench record wrong: %+v", got)
	}
}

// TestAppendBenchFile covers the multi-record artifact the bench-smoke
// CI job uploads: records accumulate by name, same-name re-runs replace
// in place, and a legacy single-record file upgrades to a list.
func TestAppendBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ci.json")
	read := func() []Bench {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []Bench
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	if err := AppendBenchFile(path, Bench{Name: "BenchmarkSimThroughput", InstrPerSec: 1}); err != nil {
		t.Fatal(err)
	}
	if err := AppendBenchFile(path, Bench{Name: "BenchmarkScenarioThroughput/cores=8", InstrPerSec: 2}); err != nil {
		t.Fatal(err)
	}
	got := read()
	if len(got) != 2 || got[0].Name != "BenchmarkSimThroughput" || got[1].InstrPerSec != 2 {
		t.Fatalf("accumulated records wrong: %+v", got)
	}
	for _, r := range got {
		if r.Version != Version {
			t.Fatalf("record missing version: %+v", r)
		}
	}

	// Same name replaces in place instead of duplicating.
	if err := AppendBenchFile(path, Bench{Name: "BenchmarkSimThroughput", InstrPerSec: 3}); err != nil {
		t.Fatal(err)
	}
	got = read()
	if len(got) != 2 || got[0].InstrPerSec != 3 {
		t.Fatalf("same-name record not replaced: %+v", got)
	}

	// A legacy single-record file upgrades to a list on append.
	legacy, err := json.Marshal(Bench{Version: Version, Name: "old"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendBenchFile(path, Bench{Name: "new"}); err != nil {
		t.Fatal(err)
	}
	got = read()
	if len(got) != 2 || got[0].Name != "old" || got[1].Name != "new" {
		t.Fatalf("legacy upgrade wrong: %+v", got)
	}
}
