package harness

import (
	"slices"
	"strings"
	"testing"

	"shotgun/internal/sim"
)

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(Scale{WarmupInstr: 120_000, MeasureInstr: 150_000, Samples: 1})
	cfg := sim.Config{Workload: "Nutch", Mechanism: sim.None}
	a := r.Run(cfg)
	b := r.Run(cfg)
	if a.Core != b.Core {
		t.Fatal("memoized results differ")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.cache))
	}
}

func TestSelect(t *testing.T) {
	exps := []Experiment{{ID: "a", Desc: "first a"}, {ID: "b"}, {ID: "a", Desc: "shadowed a"}, {ID: "c"}}
	ids := func(es []Experiment) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return out
	}

	got, err := Select(exps, " c,a , b,c,a")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"c", "a", "b"}; !slices.Equal(ids(got), want) {
		t.Fatalf("Select = %v, want %v (list order, repeats dropped)", ids(got), want)
	}
	if got[1].Desc != "first a" {
		t.Fatalf("id a resolved to %q, want the earlier experiment", got[1].Desc)
	}

	for _, sel := range []string{"a,nope", "a,", ""} {
		if _, err := Select(exps, sel); err == nil {
			t.Fatalf("Select(%q) accepted an unknown id", sel)
		}
	}
	if _, err := Select(exps, "b, nope ,a"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("error does not name the unknown id: %v", err)
	}
}
