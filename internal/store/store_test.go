package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/sim"
)

// fakeResult builds a distinguishable result without running a
// simulation — the store must round-trip bytes, not compute them.
func fakeResult(wl string, instr uint64) sim.Result {
	res := sim.Result{Workload: wl, Mechanism: sim.Shotgun}
	res.Core.Instructions = instr
	res.Core.Cycles = 3 * instr
	res.BTBMisses = instr / 100
	res.PrefetchAccuracy = 0.75
	return res
}

// Get and Put are the single-core (N=1 scenario) views of the store
// that most tests read and write through.
func (s *Store) Get(cfg sim.Config) (sim.Result, bool) {
	res, ok := s.GetScenario(sim.SingleCore(cfg))
	if !ok {
		return sim.Result{}, false
	}
	return res.Cores[0], true
}

func (s *Store) Put(cfg sim.Config, res sim.Result) error {
	return s.PutScenario(sim.SingleCore(cfg), sim.ScenarioResult{Cores: []sim.Result{res}})
}

func testConfig(wl string) sim.Config {
	return sim.Config{Workload: wl, Mechanism: sim.Shotgun,
		WarmupInstr: 1000, MeasureInstr: 2000, Samples: 1}
}

func TestKeyNormalizationAndDistinctness(t *testing.T) {
	// Equivalent-after-normalization configs share a key.
	a := ScenarioKey(sim.SingleCore(sim.Config{Workload: "Oracle", Mechanism: sim.Shotgun}))
	b := ScenarioKey(sim.SingleCore(sim.Config{Workload: "Oracle", Mechanism: sim.Shotgun, BTBEntries: 2048}))
	c := ScenarioKey(sim.SingleCore(sim.Config{Workload: "Oracle", Mechanism: sim.Shotgun, Layout: footprint.Layout8}))
	if a != b || a != c {
		t.Fatalf("normalized-equivalent configs got distinct keys:\n%s\n%s\n%s", a, b, c)
	}
	// Semantic differences get distinct keys, including nil vs explicit
	// ShotgunSizes (JSON null vs object).
	distinct := []sim.Config{
		{Workload: "Oracle", Mechanism: sim.Shotgun},
		{Workload: "DB2", Mechanism: sim.Shotgun},
		{Workload: "Oracle", Mechanism: sim.Boomerang},
		{Workload: "Oracle", Mechanism: sim.Shotgun, BTBEntries: 4096},
		{Workload: "Oracle", Mechanism: sim.Shotgun, Layout: footprint.Layout32},
		{Workload: "Oracle", Mechanism: sim.Shotgun, SkipInstr: 42},
		{Workload: "Oracle", Mechanism: sim.Shotgun,
			ShotgunSizes: &btb.Sizes{UEntries: 1536, CEntries: 64, REntries: 512}},
	}
	seen := map[string]int{}
	for i, cfg := range distinct {
		k := ScenarioKey(sim.SingleCore(cfg))
		if j, dup := seen[k]; dup {
			t.Errorf("configs %d and %d collide on %s", j, i, k)
		}
		seen[k] = i
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("Oracle")
	want := fakeResult("Oracle", 123_456)
	if _, ok := s.Get(cfg); ok {
		t.Fatal("Get hit on empty store")
	}
	if err := s.Put(cfg, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(cfg)
	if !ok {
		t.Fatal("Get missed after Put")
	}
	if got != want {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Records != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put / 1 record", st)
	}
}

func TestWarmRestartServesRecords(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("DB2")
	want := fakeResult("DB2", 999)
	if err := s1.Put(cfg, want); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(cfg)
	if !ok || got != want {
		t.Fatalf("restart lost the record: ok=%v got=%+v", ok, got)
	}
	if s2.Len() != 1 {
		t.Fatalf("restart lists %d records, want 1", s2.Len())
	}
}

func TestCorruptRecordDroppedOnGet(t *testing.T) {
	for _, tc := range []struct {
		name    string
		garbage []byte
		// orphan: the garbage is a file no Put wrote (a crash mid-write
		// of an older build), listed by the next Open, not an overwrite
		// of a record this process put.
		orphan bool
	}{
		{name: "truncated", garbage: []byte(`{"version":1,"key":"`)},
		{name: "empty", garbage: []byte{}},
		{name: "not-json", garbage: []byte("hello\n")},
		{name: "truncated-orphan", garbage: []byte(`{"version":1,`), orphan: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig("Zeus")
			if !tc.orphan {
				if err := s.Put(cfg, fakeResult("Zeus", 11)); err != nil {
					t.Fatal(err)
				}
			}
			key := ScenarioKey(sim.SingleCore(cfg))
			if err := os.WriteFile(s.recordPath(key), tc.garbage, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.orphan {
				// Open lists the file without reading it.
				if s, err = Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			if s.Len() != 1 {
				t.Fatalf("store lists %d records before the read, want 1", s.Len())
			}
			if _, ok := s.Get(cfg); ok {
				t.Fatal("Get served a corrupt record")
			}
			if _, err := os.Stat(s.recordPath(key)); !os.IsNotExist(err) {
				t.Fatal("corrupt record not removed")
			}
			if st := s.Stats(); st.CorruptDropped != 1 || st.Records != 0 {
				t.Fatalf("stats %+v, want 1 corrupt-dropped / 0 records", st)
			}
			// The store stays usable: a fresh Put re-creates the record.
			if err := s.Put(cfg, fakeResult("Zeus", 12)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(cfg); !ok {
				t.Fatal("Put after corruption recovery missed")
			}
		})
	}
}

func TestKeyMismatchDropped(t *testing.T) {
	// A record whose body doesn't hash to its filename (copied or
	// tampered) must not be served.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("Nutch")
	if err := s.Put(cfg, fakeResult("Nutch", 5)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.recordPath(ScenarioKey(sim.SingleCore(cfg))))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.recordPath("0000beef"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetKey("0000beef"); ok {
		t.Fatal("served a record under the wrong key")
	}
}

// TestEditedScenarioDropped edits a stored record's scenario (Nutch
// becomes Oracle) and leaves its key and file name as they were. The
// key no longer addresses the body, so the read must drop the record
// rather than serve a result under the wrong scenario.
func TestEditedScenarioDropped(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("Nutch")
	if err := s.Put(cfg, fakeResult("Nutch", 5)); err != nil {
		t.Fatal(err)
	}
	key := ScenarioKey(sim.SingleCore(cfg))
	raw, err := os.ReadFile(s.recordPath(key))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Scenario.Cores[0].Workload = "Oracle"
	edited, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.recordPath(key), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetKey(key); ok {
		t.Fatalf("served an edited record: workload %s", got.Scenario.Cores[0].Workload)
	}
	if _, err := os.Stat(s.recordPath(key)); !os.IsNotExist(err) {
		t.Fatal("edited record not removed")
	}
	if st := s.Stats(); st.CorruptDropped != 1 || st.Records != 0 {
		t.Fatalf("stats %+v, want 1 corrupt-dropped / 0 records", st)
	}
}

func TestVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("Streaming")
	if err := s1.Put(cfg, fakeResult("Streaming", 8)); err != nil {
		t.Fatal(err)
	}
	// Pretend an older (or newer) format generation wrote the store.
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("stale-format store not wiped: %d records", s2.Len())
	}
	if _, ok := s2.Get(cfg); ok {
		t.Fatal("stale-format record served")
	}
	// And the store was re-stamped with the current version.
	raw, err := os.ReadFile(filepath.Join(dir, "VERSION"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintln(FormatVersion); string(raw) != want {
		t.Fatalf("VERSION = %q, want %q", raw, want)
	}
}

func TestStaleRecordVersionDropped(t *testing.T) {
	// A record carrying an old embedded version (e.g. copied into a
	// current-format store) is dropped on access.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("Oracle")
	key := ScenarioKey(sim.SingleCore(cfg))
	stale := fmt.Sprintf(`{"version":0,"key":"%s","config":{},"result":{}}`, key)
	if err := os.WriteFile(s.recordPath(key), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(cfg); ok {
		t.Fatal("served a stale-version record")
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Scenario{Cores: []sim.Config{
		testConfig("Oracle"),
		{Workload: "DB2", Mechanism: sim.FDIP, WarmupInstr: 1000, MeasureInstr: 2000, Samples: 1},
	}}
	want := sim.ScenarioResult{Cores: []sim.Result{
		fakeResult("Oracle", 111),
		fakeResult("DB2", 222),
	}}
	if err := s.PutScenario(sc, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetScenario(sc)
	if !ok {
		t.Fatal("GetScenario missed after PutScenario")
	}
	for i := range want.Cores {
		if got.Cores[i] != want.Cores[i] {
			t.Fatalf("core %d mismatch:\ngot  %+v\nwant %+v", i, got.Cores[i], want.Cores[i])
		}
	}
	// The record holds the canonical form: canonical order sorts DB2
	// before Oracle.
	rec, ok := s.GetKey(ScenarioKey(sc))
	if !ok {
		t.Fatal("GetKey missed the scenario's content key")
	}
	if len(rec.Scenario.Cores) != 2 || rec.Scenario.Cores[0].Workload != "DB2" || rec.Result.Cores[0] != want.Cores[1] {
		t.Fatalf("record not canonical: %+v", rec)
	}
	if s.Len() != 1 {
		t.Fatalf("store has %d records, want 1", s.Len())
	}

	// A per-core permutation is the same record — and its Get view maps
	// each result back to the permuted caller's core order.
	swapped := sim.Scenario{Cores: []sim.Config{sc.Cores[1], sc.Cores[0]}}
	if ScenarioKey(swapped) != ScenarioKey(sc) {
		t.Fatal("permuted scenario has its own key")
	}
	gotSwapped, ok := s.GetScenario(swapped)
	if !ok {
		t.Fatal("permuted Get missed")
	}
	if gotSwapped.Cores[0] != want.Cores[1] || gotSwapped.Cores[1] != want.Cores[0] {
		t.Fatalf("permuted view misaligned:\n%+v\nwant swap of %+v", gotSwapped.Cores, want.Cores)
	}
	// A result list that doesn't match the core count is rejected.
	if err := s.PutScenario(sc, sim.ScenarioResult{Cores: want.Cores[:1]}); err == nil {
		t.Fatal("mismatched result list accepted")
	}
}

// TestPrune covers the eviction path end to end: oldest records (by
// file mtime) go first, the key set matches the surviving records, and
// a fresh Open of the pruned directory lists the identical set.
func TestPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2"}
	var sizes []int64
	for i, wl := range workloads {
		if err := s.Put(testConfig(wl), fakeResult(wl, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(s.recordPath(ScenarioKey(sim.SingleCore(testConfig(wl)))))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
		// Strictly increasing mtimes even on coarse-granularity
		// filesystems: stamp them explicitly.
		mt := time.Unix(1_700_000_000+int64(i)*10, 0)
		if err := os.Chtimes(s.recordPath(ScenarioKey(sim.SingleCore(testConfig(wl)))), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Budget for the newest two records (plus change, below the third).
	budget := sizes[5] + sizes[4] + 1
	dropped, err := s.Prune(budget)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 4 {
		t.Fatalf("dropped %d records, want 4", dropped)
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d records after prune, want 2", s.Len())
	}
	for _, wl := range workloads[:4] {
		if _, ok := s.Get(testConfig(wl)); ok {
			t.Fatalf("old record %s survived the prune", wl)
		}
	}
	for _, wl := range workloads[4:] {
		if _, ok := s.Get(testConfig(wl)); !ok {
			t.Fatalf("new record %s evicted", wl)
		}
	}

	// A fresh Open lists exactly the survivors.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d records, want 2", s2.Len())
	}
	for _, wl := range workloads[4:] {
		if _, ok := s2.GetKey(ScenarioKey(sim.SingleCore(testConfig(wl)))); !ok {
			t.Fatalf("reopened store missing %s", wl)
		}
	}

	// A budget everything fits in is a no-op.
	if n, err := s2.Prune(1 << 30); err != nil || n != 0 {
		t.Fatalf("no-op prune = (%d, %v)", n, err)
	}
	// Zero budget empties the store; negative is rejected.
	if _, err := s2.Prune(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if n, err := s2.Prune(0); err != nil || n != 2 {
		t.Fatalf("zero-budget prune = (%d, %v), want 2 dropped", n, err)
	}
	if s2.Len() != 0 {
		t.Fatalf("store not emptied: %d records", s2.Len())
	}
}

// TestConcurrentReadWrite hammers the store from concurrent readers and
// writers (run under -race in CI): every Get must return either a miss
// or a complete, intact record — never a torn one.
func TestConcurrentReadWrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2"}
	const rounds = 50
	var wg sync.WaitGroup
	for _, wl := range workloads {
		wl := wl
		wg.Add(2)
		go func() { // writer: re-puts the same key repeatedly
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Put(testConfig(wl), fakeResult(wl, uint64(1000+i))); err != nil {
					t.Errorf("put %s: %v", wl, err)
					return
				}
			}
		}()
		go func() { // reader: any hit must be intact
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if res, ok := s.Get(testConfig(wl)); ok {
					if res.Workload != wl || res.Core.Instructions < 1000 {
						t.Errorf("torn read for %s: %+v", wl, res)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.CorruptDropped != 0 || st.Records != len(workloads) {
		t.Fatalf("stats %+v, want 0 corrupt / %d records", st, len(workloads))
	}
}

// TestLayoutIsVersionAndRecords pins the on-disk layout: whatever the
// traffic (puts, a re-put, a prune), the store root holds VERSION and
// records/ only, and records/ holds record files only.
func TestLayoutIsVersionAndRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range []string{"Nutch", "Oracle", "DB2"} {
		if err := s.Put(testConfig(wl), fakeResult(wl, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testConfig("Oracle"), fakeResult("Oracle", 99)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.recordPath(ScenarioKey(sim.SingleCore(testConfig("Oracle")))))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Prune(info.Size()); err != nil || n != 2 {
		t.Fatalf("prune = (%d, %v), want 2 dropped", n, err)
	}

	root, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range root {
		names = append(names, de.Name())
	}
	if len(names) != 2 || names[0] != "VERSION" || names[1] != "records" {
		t.Fatalf("store root holds %v, want [VERSION records]", names)
	}
	recs, err := os.ReadDir(filepath.Join(dir, "records"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || s.Len() != 1 {
		t.Fatalf("records/ holds %v (store lists %d), want the one surviving record", recs, s.Len())
	}
	if _, ok := s.GetKey(strings.TrimSuffix(recs[0].Name(), ".json")); !ok {
		t.Fatalf("records/ file %s is not the surviving record", recs[0].Name())
	}
}

// TestOpenIgnoresStaleIndexFile opens a root an older build left with
// an index.json summary that disagrees with records/: the store lists
// and serves every record file, and leaves the old file as it found it.
func TestOpenIgnoresStaleIndexFile(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"Apache", "Zeus", "Streaming"}
	for i, wl := range workloads {
		if err := s1.Put(testConfig(wl), fakeResult(wl, uint64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Lists one record and a key with no file; omits the other two.
	stale := fmt.Sprintf(`{"version":%d,"records":{%q:{"workload":"Apache","mechanism":"shotgun","cores":1},`+
		`"00ff":{"workload":"Nutch","mechanism":"none","cores":1}}}`, FormatVersion, ScenarioKey(sim.SingleCore(testConfig("Apache"))))
	indexPath := filepath.Join(dir, "index.json")
	if err := os.WriteFile(indexPath, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(workloads) {
		t.Fatalf("store lists %d records, want %d", s2.Len(), len(workloads))
	}
	for i, wl := range workloads {
		got, ok := s2.Get(testConfig(wl))
		if !ok || got != fakeResult(wl, uint64(20+i)) {
			t.Fatalf("record %s not served: ok=%v got=%+v", wl, ok, got)
		}
	}
	if _, ok := s2.GetKey("00ff"); ok {
		t.Fatal("served a key listed only in the stale index")
	}
	if raw, err := os.ReadFile(indexPath); err != nil || string(raw) != stale {
		t.Fatalf("stale index.json changed: err=%v", err)
	}
}

// TestBackendReal pins the typed-nil normalization: an optional Backend
// field holding a typed-nil *Store must read as absent, while any other
// implementation (a decorator, say) counts as usable.
func TestBackendReal(t *testing.T) {
	var nilStore *Store
	if Real(nil) || Real(nilStore) {
		t.Fatal("nil backends reported usable")
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !Real(st) {
		t.Fatal("real store reported unusable")
	}
	if !Real(struct{ Backend }{st}) {
		t.Fatal("decorated store reported unusable")
	}
}

// TestOpenErrorPaths opens roots that cannot hold a store: the root or
// its records directory is a regular file, or VERSION is a directory.
// Each must fail with an error, not panic or half-open.
func TestOpenErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(dir string) error
	}{
		{"root is a file", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "root"), nil, 0o644)
		}},
		{"records is a file", func(dir string) error {
			if err := os.Mkdir(filepath.Join(dir, "root"), 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "root", "records"), nil, 0o644)
		}},
		{"VERSION is a directory", func(dir string) error {
			return os.MkdirAll(filepath.Join(dir, "root", "VERSION"), 0o755)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.setup(dir); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(filepath.Join(dir, "root")); err == nil {
				t.Fatalf("Open succeeded: %+v", s)
			}
		})
	}
}

// TestWriteFileAtomicErrors fails the temp-file creation (missing
// directory) and the rename (the target is a non-empty directory). Both
// must report an error and leave no temp file behind.
func TestWriteFileAtomicErrors(t *testing.T) {
	dir := t.TempDir()
	if err := writeFileAtomic(filepath.Join(dir, "missing", "f"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	target := filepath.Join(dir, "target")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(target, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	left, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("temp files left behind: %v (%v)", left, err)
	}
}

// TestPutErrorsCounted fails a put two ways, a result whose core count
// does not match the scenario and a records directory that is gone, and
// checks that each failure is returned and counted, never stored.
func TestPutErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.SingleCore(testConfig("Nutch"))
	if err := s.PutScenario(sc, sim.ScenarioResult{}); err == nil {
		t.Fatal("put of a zero-core result succeeded")
	}
	if err := os.RemoveAll(filepath.Join(dir, "records")); err != nil {
		t.Fatal(err)
	}
	err = s.Put(testConfig("Nutch"), fakeResult("Nutch", 5))
	var pe *os.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("put into a missing records directory: err %v, want a path error", err)
	}
	if st := s.Stats(); st.PutErrors != 2 || st.Puts != 0 || st.Records != 0 {
		t.Fatalf("stats %+v, want 2 put errors and nothing stored", st)
	}
}
