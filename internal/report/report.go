// Package report emits machine-readable forms of the harness's tables
// and figures: JSON for programmatic consumers (the HTTP server,
// shotgun-bench -json) and CSV for spreadsheets/plotting. The cells are
// exactly the formatted strings the text tables render, so a JSON/CSV
// report and the checked-in golden corpus can never disagree about a
// value.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"shotgun/internal/harness"
	"shotgun/internal/stats"
)

// Version is the report schema generation, embedded in every document so
// consumers can reject shapes they don't understand.
const Version = 1

// Table is the machine-readable form of one rendered experiment table.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Sampled marks tables whose cells are statistical estimates from
	// sampled simulation (mean ± confidence interval) rather than exact
	// runs. Omitted — not false — for exact tables, so pre-sampling
	// report documents are byte-identical.
	Sampled bool `json:"sampled,omitempty"`
}

// FromStats converts a rendered stats.Table.
func FromStats(id string, t *stats.Table) Table {
	return Table{ID: id, Title: t.Title(), Columns: t.Headers(), Rows: t.Rows(), Sampled: t.Sampled()}
}

// Report bundles the tables of one harness run.
type Report struct {
	Version int     `json:"version"`
	Scale   string  `json:"scale,omitempty"`
	Tables  []Table `json:"tables"`
}

// FromExperiments runs every experiment on the runner and collects the
// structured tables. Callers wanting pool saturation should
// runner.PrefetchScenarios(harness.AllScenarios(exps)) first; assembly
// here then
// only reads memoized results.
func FromExperiments(r *harness.Runner, exps []harness.Experiment, scale string) Report {
	rep := Report{Version: Version, Scale: scale}
	for _, e := range exps {
		rep.Tables = append(rep.Tables, FromStats(e.ID, e.Table(r)))
	}
	return rep
}

// WriteJSON emits the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits every table as a CSV block: a ["table", id, title]
// marker row, the column header row, then the data rows; blocks are
// separated by a blank line.
func (r Report) WriteCSV(w io.Writer) error {
	for i, t := range r.Tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := t.WriteCSV(w); err != nil {
			return fmt.Errorf("report: table %s: %w", t.ID, err)
		}
	}
	return nil
}

// WriteCSV emits one table (marker row, header row, data rows). Sampled
// tables carry a fourth "sampled" cell on the marker row; exact tables
// keep the three-cell marker unchanged.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	marker := []string{"table", t.ID, t.Title}
	if t.Sampled {
		marker = append(marker, "sampled")
	}
	if err := cw.Write(marker); err != nil {
		return err
	}
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
