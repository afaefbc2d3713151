package report

import (
	"encoding/json"
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
