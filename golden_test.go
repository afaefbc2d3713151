// The golden-regression gate: testdata/golden/ holds the quick-scale
// render of every table/figure of the spec catalog plus the
// machine-readable report, checked in byte-for-byte, and keys.txt pins
// the content keys of every experiment's scenarios. The runner is
// deterministic at any worker count, which turns these files into a
// cheap, exact oracle — any change to the model, a spec, or the report
// emitters that shifts a single cell fails TestGolden with a readable
// diff, and any change that moves a store key fails
// TestSpecGoldenParity.
//
// After an intentional model change, regenerate with:
//
//	go test -run 'TestGolden|TestSpecGoldenParity' -update && git diff testdata/golden
package shotgun_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"shotgun/internal/harness"
	"shotgun/internal/report"
	"shotgun/internal/spec"
	"shotgun/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current model")

func TestGolden(t *testing.T) {
	exps := spec.Catalog()
	r := harness.NewRunner(harness.QuickScale())
	r.PrefetchScenarios(harness.AllScenarios(exps))

	for _, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			compareGolden(t, filepath.Join("testdata", "golden", e.ID+".txt"), e.Run(r))
		})
	}

	t.Run("report.json", func(t *testing.T) {
		var b strings.Builder
		if err := report.FromExperiments(r, exps, "quick").WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, filepath.Join("testdata", "golden", "report.json"), b.String())
	})
}

// TestSpecGoldenParity holds every catalog spec to its line of
// testdata/golden/keys.txt: the spec must expand to exactly the pinned
// set of scenario content keys, so its jobs keep deduplicating against
// the memo, the store and the cluster records of earlier runs. It
// normalizes scenarios and simulates nothing.
func TestSpecGoldenParity(t *testing.T) {
	path := filepath.Join("testdata", "golden", "keys.txt")
	exps := spec.Catalog()
	r := harness.NewRunner(harness.QuickScale())
	got := make([]string, len(exps))
	for i, e := range exps {
		got[i] = keysLine(r, e)
	}
	if *updateGolden {
		compareGolden(t, path, strings.Join(got, "\n")+"\n")
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (regenerate with: go test -run TestSpecGoldenParity -update): %v", path, err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		id, _, _ := strings.Cut(line, " ")
		want[id] = line
	}
	if len(want) != len(exps) {
		t.Errorf("%s pins %d experiments, the catalog has %d", path, len(want), len(exps))
	}
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			if got[i] != want[e.ID] {
				t.Errorf("scenario keys moved:\n  golden: %q\n  got:    %q", want[e.ID], got[i])
			}
		})
	}
}

// keysLine is one experiment's keys.txt entry: its ID, its distinct
// scenario count, and a sha256 over the sorted content keys of its
// scenarios normalized at the runner's scale.
func keysLine(r *harness.Runner, e harness.Experiment) string {
	set := make(map[string]bool)
	if e.Scenarios != nil {
		for _, sc := range e.Scenarios() {
			set[store.ScenarioKey(r.NormalizeScenario(sc))] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%s %d %x", e.ID, len(keys), sha256.Sum256([]byte(strings.Join(keys, "\n"))))
}

// compareGolden diffs got against the checked-in file (or rewrites it
// under -update), failing with the first differing line so table drift
// reads directly in CI logs.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with: go test -run TestGolden -update): %v", path, err)
	}
	if got == string(want) {
		return
	}
	t.Errorf("%s drifted from the golden corpus:\n%s\n(intentional change? regenerate with: go test -run TestGolden -update)",
		path, firstDiff(string(want), got))
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d lines, got %d lines", len(wl), len(gl))
}
