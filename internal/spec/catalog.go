package spec

import (
	"fmt"
	"slices"
	"sync"

	"shotgun"
	"shotgun/internal/harness"
)

// catalogIDs is the paper's presentation order of the embedded specs:
// each ID names specs/<id>.json, whose single table carries that ID.
var catalogIDs = []string{
	"table1", "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13",
	"interference", "interference64", "sampled", "delta", "clztage", "smt",
}

// catalog compiles the embedded specs on first use. A spec that does
// not compile is a build defect, not an input error, so it panics.
var catalog = sync.OnceValue(func() []harness.Experiment {
	var exps []harness.Experiment
	for _, id := range catalogIDs {
		data, err := shotgun.Specs.ReadFile("specs/" + id + ".json")
		if err != nil {
			panic(fmt.Sprintf("spec: catalog: %v", err))
		}
		c, err := Compile(data)
		if err != nil {
			panic(fmt.Sprintf("spec: catalog: specs/%s.json: %v", id, err))
		}
		exps = append(exps, c.Experiments()...)
	}
	return exps
})

// Catalog returns every reproduced table and figure, in the paper's
// presentation order.
func Catalog() []harness.Experiment { return slices.Clone(catalog()) }

// FindExperiment returns the catalog experiment with the given ID.
func FindExperiment(id string) (harness.Experiment, bool) {
	for _, e := range catalog() {
		if e.ID == id {
			return e, true
		}
	}
	return harness.Experiment{}, false
}
