// Package store persists simulation results on disk as a
// content-addressed cache. Each record is keyed by the SHA-256 of the
// canonical encoding of the *normalized* sim.Scenario (single-core
// simulations are N=1 scenarios), so two scenarios that would run the
// same simulation always share one record and any semantic difference
// gets its own — the same identity contract harness.Runner's in-memory
// memo uses, extended across process restarts.
//
// On-disk layout (under the store root):
//
//	VERSION              format generation; a mismatch wipes the store
//	records/<key>.json   one record: {version, key, config, result}
//
// The records directory is the only index: Open lists it without
// reading any record. Records are written to a temp file and renamed
// into place, so readers never observe a partial record; a record that
// is nevertheless untrustworthy (truncated by a crash, wrong version,
// or a scenario that no longer hashes to its file name) is dropped on
// first access and treated as a miss. An older build's index.json is
// neither read nor removed.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shotgun/internal/sim"
)

// FormatVersion is the on-disk format generation. Bump it whenever the
// record schema, the key derivation, or anything else that changes the
// meaning of persisted bytes changes; Open then invalidates (removes)
// every record written by an older generation instead of serving it.
// Generation 2: records hold scenarios (N cores + shared-uncore
// parameters) and per-core result lists; keys hash the canonical
// scenario encoding. Generation 3: the canonical encoding orders cores
// canonically, so per-core permutations of one scenario share one key
// — records written under order-sensitive keys must not linger as
// unreachable (or, worse, colliding) debris. Generation 4: configs
// carry an optional Sampling block and results an optional Sampled
// summary; exact-run encodings are byte-identical (both fields omit
// when nil), but a store written by a sampling-aware build must not be
// read by an older binary that would silently drop the block from
// round-tripped records.
const FormatVersion = 4

const (
	versionFile = "VERSION"
	recordsDir  = "records"
)

// ScenarioKey returns the content address of a scenario: the SHA-256
// hex digest of its canonical encoding (sim.Scenario.CanonicalBytes —
// the normalized struct's fixed field order, no maps, no formatting
// choices), so the digest is stable across processes and platforms.
func ScenarioKey(sc sim.Scenario) string {
	sum := sha256.Sum256(sc.CanonicalBytes())
	return hex.EncodeToString(sum[:])
}

// Record is the on-disk form of one cached simulation.
type Record struct {
	Version  int                `json:"version"`
	Key      string             `json:"key"`
	Scenario sim.Scenario       `json:"scenario"`
	Result   sim.ScenarioResult `json:"result"`
}

// newRecord canonicalizes one scenario result into its Record: the
// scenario is normalized (canonical core order), the results are
// permuted to match, and the key is the content address of the
// canonical form. The store writes records built here only, so a
// record's file name and its bytes can never disagree about identity.
func newRecord(sc sim.Scenario, res sim.ScenarioResult) (Record, error) {
	norm, perm := sc.NormalizedPerm()
	if len(res.Cores) != len(norm.Cores) {
		return Record{}, fmt.Errorf("store: %d results for %d cores", len(res.Cores), len(norm.Cores))
	}
	canon := make([]sim.Result, len(res.Cores))
	for i, k := range perm {
		canon[k] = res.Cores[i]
	}
	key := ScenarioKey(norm)
	return Record{Version: FormatVersion, Key: key, Scenario: norm, Result: sim.ScenarioResult{Cores: canon}}, nil
}

// validRecord reports whether a decoded record can be trusted: right
// generation, internally consistent shape, and a key that matches the
// scenario it claims to cache (an edited or copied record must not be
// served under someone else's address).
func validRecord(rec Record) bool {
	if rec.Version != FormatVersion ||
		len(rec.Scenario.Cores) == 0 || len(rec.Result.Cores) != len(rec.Scenario.Cores) {
		return false
	}
	norm, _ := rec.Scenario.NormalizedPerm()
	return ScenarioKey(norm) == rec.Key
}

// Stats counts store traffic since Open.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts successful writes.
	Hits, Misses, Puts uint64
	// PutErrors counts failed writes (the result still reached the
	// caller; only persistence was lost).
	PutErrors uint64
	// CorruptDropped counts records removed because they were
	// unreadable, carried the wrong version, or failed the key check.
	CorruptDropped uint64
	// Records is the current number of record files (an unreadable one
	// counts until a read drops it).
	Records int
}

// Store is an on-disk result cache safe for concurrent readers and
// writers within a process (atomic renames keep it crash-consistent
// across processes too).
type Store struct {
	dir string

	mu   sync.RWMutex
	keys map[string]struct{}

	hits, misses, puts, putErrors, corrupt atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir. A store
// written by a different FormatVersion is wiped: stale-format records
// must never be served, and a clean rebuild is exactly what a format
// change wants.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, recordsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, keys: make(map[string]struct{})}

	vpath := filepath.Join(dir, versionFile)
	raw, err := os.ReadFile(vpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Another generation's store, a fresh one, or pre-versioning debris
	// (no VERSION): wipe to be safe.
	if strings.TrimSpace(string(raw)) != fmt.Sprint(FormatVersion) {
		if err := s.wipe(); err != nil {
			return nil, err
		}
	}
	if err := writeFileAtomic(vpath, []byte(fmt.Sprintln(FormatVersion))); err != nil {
		return nil, err
	}

	names, err := os.ReadDir(filepath.Join(dir, recordsDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		if key, ok := strings.CutSuffix(de.Name(), ".json"); ok {
			s.keys[key] = struct{}{}
		}
	}
	return s, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// wipe removes every record (format invalidation).
func (s *Store) wipe() error {
	rd := filepath.Join(s.dir, recordsDir)
	if err := os.RemoveAll(rd); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *Store) recordPath(key string) string {
	return filepath.Join(s.dir, recordsDir, key+".json")
}

// load reads one record and validates it with validRecord plus the
// file-name check, removing it (corruption recovery) if it cannot be
// trusted. Every read goes through here, so one check guards them all.
func (s *Store) load(key string) (Record, bool) {
	raw, err := os.ReadFile(s.recordPath(key))
	if err != nil {
		return Record{}, false
	}
	var rec Record
	if json.Unmarshal(raw, &rec) != nil || rec.Key != key || !validRecord(rec) {
		s.drop(key)
		return Record{}, false
	}
	return rec, true
}

// drop removes a corrupt record file and its key.
func (s *Store) drop(key string) {
	s.corrupt.Add(1)
	os.Remove(s.recordPath(key))
	s.mu.Lock()
	delete(s.keys, key)
	s.mu.Unlock()
}

// GetScenario returns the stored result for a scenario, if present and
// intact. Records hold canonical-order results; the returned Cores are
// mapped back to the caller's core order, so any permutation of a
// stored scenario reads its own view of the one shared record.
func (s *Store) GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool) {
	norm, perm := sc.NormalizedPerm()
	rec, ok := s.GetKey(ScenarioKey(norm))
	if !ok {
		return sim.ScenarioResult{}, false
	}
	return rec.Result.Reorder(perm), true
}

// GetKey returns the full stored record under a raw key (the server's
// poll endpoint looks results up by the key it handed out). A hit
// touches the record so Prune's oldest-first eviction order is by last
// access, not last write — without it a hot, frequently-read record
// written long ago would be evicted before a cold one written
// yesterday.
func (s *Store) GetKey(key string) (Record, bool) {
	rec, ok := s.load(key)
	if !ok {
		s.misses.Add(1)
		return Record{}, false
	}
	s.hits.Add(1)
	s.touch(key)
	return rec, true
}

// touch stamps a record file's mtime with the wall clock. Reads and
// writes both stamp through here: a kernel-set mtime comes from a
// coarser clock, so a record written just after another was read, or
// several written within one clock tick, would otherwise rank behind
// older records in Prune's order. Best-effort: losing a stamp costs
// eviction priority, never correctness.
func (s *Store) touch(key string) {
	now := time.Now()
	_ = os.Chtimes(s.recordPath(key), now, now)
}

// PutScenario persists one scenario result as one atomically renamed
// record file; the next Open lists it back in.
func (s *Store) PutScenario(sc sim.Scenario, res sim.ScenarioResult) error {
	err := s.put(sc, res)
	if err != nil {
		s.putErrors.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

// put canonicalizes one result into its record — results land in
// canonical core order, matching the canonical scenario the record
// carries (the caller may hold any permutation) — writes the record
// file, then adds its key.
func (s *Store) put(sc sim.Scenario, res sim.ScenarioResult) error {
	rec, err := newRecord(sc, res)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	if err := writeFileAtomic(s.recordPath(rec.Key), append(raw, '\n')); err != nil {
		return err
	}
	s.touch(rec.Key)
	s.mu.Lock()
	s.keys[rec.Key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// Len returns the number of record files.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keys)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		PutErrors:      s.putErrors.Load(),
		CorruptDropped: s.corrupt.Load(),
		Records:        s.Len(),
	}
}

// Prune evicts the oldest records (by record-file modification time,
// which touch stamps on every write and read; newest kept first) until
// the records directory fits within maxBytes, returning how many
// records were removed. A file that cannot be unlinked keeps its key,
// still counts toward the occupancy total (it really is on disk — so
// older files keep being evicted), is excluded from the removed count,
// and the error is reported.
func (s *Store) Prune(maxBytes int64) (int, error) {
	if maxBytes < 0 {
		return 0, fmt.Errorf("store: negative prune budget %d", maxBytes)
	}
	dir := filepath.Join(s.dir, recordsDir)
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	type recFile struct {
		key   string
		size  int64
		mtime int64
	}
	var files []recFile
	for _, de := range names {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent drop; nothing to evict
		}
		files = append(files, recFile{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Newest first; ties broken by key so the eviction order is
	// deterministic on coarse-mtime filesystems.
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime > files[j].mtime
		}
		return files[i].key < files[j].key
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	var firstErr error
	dropped := 0
	for _, f := range files {
		total += f.size
		if total <= maxBytes {
			continue
		}
		if err := os.Remove(filepath.Join(dir, f.key+".json")); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: prune %s: %w", f.key, err)
			}
			continue // still on disk: keep its key, don't report it removed
		}
		delete(s.keys, f.key)
		dropped++
	}
	return dropped, firstErr
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so concurrent readers see either the old bytes or the new —
// never a prefix.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
