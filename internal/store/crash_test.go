package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"shotgun/internal/sim"
)

// TestPruneKeepsRecentlyRead is the regression test for the eviction
// bug where Prune ordered by write time while reads never touched the
// file: a hot, frequently-read record written long ago was evicted
// before a cold one written later. A hit now bumps the record's mtime,
// so eviction order is by last access — the freshly-read OLD record
// must survive a prune that evicts the unread NEWER one.
func TestPruneKeepsRecentlyRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := testConfig("Oracle"), testConfig("DB2")
	if err := s.Put(hot, fakeResult("Oracle", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(cold, fakeResult("DB2", 2)); err != nil {
		t.Fatal(err)
	}
	// Backdate both so the write order is unambiguous: hot written long
	// before cold.
	for i, cfg := range []sim.Config{hot, cold} {
		mt := time.Unix(1_700_000_000+int64(i)*1000, 0)
		if err := os.Chtimes(s.recordPath(ScenarioKey(sim.SingleCore(cfg))), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Read the old record; the hit must reorder eviction.
	if _, ok := s.Get(hot); !ok {
		t.Fatal("hot record missing before prune")
	}

	info, err := os.Stat(s.recordPath(ScenarioKey(sim.SingleCore(hot))))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := s.Prune(info.Size() + 1) // room for the newest-by-access record only
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped %d records, want 1", dropped)
	}
	if _, ok := s.Get(hot); !ok {
		t.Fatal("freshly-read old record was evicted (last-access ordering regressed to last-write)")
	}
	if _, ok := s.Get(cold); ok {
		t.Fatal("unread newer record survived ahead of the freshly-read one")
	}
}

// TestPruneKeepsLatestPut is the regression test for writes ranking
// behind older records. A read stamps its record with the wall clock,
// while a record file's own mtime came from the kernel's coarser clock:
// a record put right after a read could look older than the record
// read, and records put within one clock tick tied, leaving the key
// tie-break to evict the newest write first. Puts stamp the wall clock
// too, so the record put last survives a prune down to its own size.
func TestPruneKeepsLatestPut(t *testing.T) {
	cases := []struct {
		name string
		read string // read between the three puts and the re-put ("": none)
		last string // the record re-put last
	}{
		{"put after read", "Oracle", "DB2"},
		// Oracle's key sorts after Nutch's and DB2's, so on a tie of
		// coarse mtimes the key tie-break evicts it.
		{"re-put within one tick", "", "Oracle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A tick boundary can separate the puts by chance; a few
			// fresh stores make a tie (the failure) near certain.
			for range 3 {
				pruneAfterPuts(t, tc.read, tc.last)
			}
		})
	}
}

// pruneAfterPuts puts Nutch, Oracle and DB2, reads read (unless ""),
// re-puts last, prunes down to last's size and checks last survived.
func pruneAfterPuts(t *testing.T, read, last string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range []string{"Nutch", "Oracle", "DB2"} {
		if err := s.Put(testConfig(wl), fakeResult(wl, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if read != "" {
		if _, ok := s.Get(testConfig(read)); !ok {
			t.Fatalf("%s missing before prune", read)
		}
	}
	cfg := testConfig(last)
	if err := s.Put(cfg, fakeResult(last, 99)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.recordPath(ScenarioKey(sim.SingleCore(cfg))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prune(info.Size()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(cfg); !ok {
		t.Fatalf("%s, put last, was evicted ahead of an older record", last)
	}
}

// TestCrashBetweenRecordAndIndex simulates the put-path crash window:
// the record file has landed (atomic rename) but the process dies
// before its in-memory key set learns of it. The next Open lists the
// orphan and serves it — the records directory is the only index.
func TestCrashBetweenRecordAndIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A normally put record alongside the orphan.
	if err := s.Put(testConfig("Oracle"), fakeResult("Oracle", 1)); err != nil {
		t.Fatal(err)
	}

	// "Crash" mid-put of a second record: write exactly the bytes
	// put would have written, then never touch the key set.
	orphan := sim.SingleCore(testConfig("DB2"))
	rec, err := newRecord(orphan, sim.ScenarioResult{Cores: []sim.Result{fakeResult("DB2", 2)}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(s.recordPath(rec.Key), append(raw, '\n')); err != nil {
		t.Fatal(err)
	}

	// The next process Opens the same directory and recovers the orphan.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened store lists %d records, want 2", s2.Len())
	}
	got, ok := s2.GetScenario(orphan)
	if !ok {
		t.Fatal("crash-orphaned record not recovered by Open")
	}
	if got.Cores[0] != fakeResult("DB2", 2) {
		t.Fatalf("recovered record corrupted: %+v", got.Cores[0])
	}
	if got, ok := s2.GetKey(rec.Key); !ok || got.Scenario.Cores[0].Workload != "DB2" {
		t.Fatalf("orphan not served under its key: ok=%v %+v", ok, got)
	}

	// The mirror image — a record file removed behind the store's back —
	// is not listed by the next Open, and not served.
	if err := os.Remove(s2.recordPath(rec.Key)); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 1 {
		t.Fatalf("reopened store lists a removed record: %d records", s3.Len())
	}
	if _, ok := s3.GetScenario(orphan); ok {
		t.Fatal("removed record served a hit")
	}
}

// TestConcurrentPutPruneGet hammers Put, Prune, and Get together under
// -race: pruning must never tear a read, corrupt a surviving record,
// or wedge the key set. (TestConcurrentReadWrite covers put/get; this
// adds the eviction writer.)
func TestConcurrentPutPruneGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2"}
	const rounds = 30
	var wg sync.WaitGroup
	for _, wl := range workloads {
		wl := wl
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Put(testConfig(wl), fakeResult(wl, uint64(1000+i))); err != nil {
					t.Errorf("put %s: %v", wl, err)
					return
				}
			}
		}()
		go func() {
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
	wg.Add(1)
	go func() { // the evictor: alternates starvation and plenty
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			budget := int64(1 << 30)
			if i%2 == 1 {
				budget = 600 // roughly one record
			}
			if _, err := s.Prune(budget); err != nil {
				t.Errorf("prune: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Whatever survived must be intact, and a fresh Open must agree
	// with the in-memory key set.
	if st := s.Stats(); st.CorruptDropped != 0 {
		t.Fatalf("corruption under concurrency: %+v", st)
	}
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("reopened store has %d records, in-memory key set %d", s2.Len(), s.Len())
	}
}

// TestPruneOverlapsEveryPut runs the evictor at the first moment each
// put's record is visible on disk, before the put returns. Evicting
// everything there must take the record's key along with its file: the
// key set and the records directory agree after every put, and a fresh
// Open agrees with both.
func TestPruneOverlapsEveryPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.putVisible = func(string) {
		if _, err := s.Prune(0); err != nil {
			t.Errorf("prune: %v", err)
		}
	}
	for i, wl := range []string{"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2"} {
		if err := s.Put(testConfig(wl), fakeResult(wl, uint64(1000+i))); err != nil {
			t.Fatalf("put %s: %v", wl, err)
		}
		files, err := os.ReadDir(filepath.Join(s.Dir(), recordsDir))
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(files) || s.Stats().Records != len(files) {
			t.Fatalf("after put %s: key set %d, Records stat %d, %d files on disk",
				wl, s.Len(), s.Stats().Records, len(files))
		}
	}
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("reopened store has %d records, in-memory key set %d", s2.Len(), s.Len())
	}
}
