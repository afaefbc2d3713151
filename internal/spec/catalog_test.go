package spec

import "testing"

// TestCatalogLookup: every catalog ID resolves to its own table, and
// callers cannot reorder the shared catalog through the slice Catalog
// returns. (The order itself is pinned by the harness package's
// TestExperimentsListComplete.)
func TestCatalogLookup(t *testing.T) {
	for _, id := range catalogIDs {
		if e, ok := FindExperiment(id); !ok || e.ID != id || e.Desc == "" {
			t.Fatalf("FindExperiment(%q) = %+v, %v", id, e, ok)
		}
	}
	if _, ok := FindExperiment("fig2"); ok {
		t.Fatal("unknown id found")
	}
	exps := Catalog()
	exps[0], exps[1] = exps[1], exps[0]
	if Catalog()[0].ID != catalogIDs[0] {
		t.Fatal("mutating the returned slice reordered the catalog")
	}
}
