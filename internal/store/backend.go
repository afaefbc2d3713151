package store

import "shotgun/internal/sim"

// Backend is the result-store contract every consumer programs
// against: the harness runner's persistence hook, the HTTP server's
// poll-by-key fallback, and the coordinator's completed-work sink all
// take a Backend, never a concrete store.
//
// Two implementations exist:
//
//   - *Store — the classic single-node on-disk store. The zero-flag
//     server is exactly this: one shard, no replication.
//   - *Sharded — a consistent-hash ring over the SHA-256 scenario-key
//     space routing every record to K replica shards over HTTP (each
//     shard is a *Store behind a ShardServer). Reads fall through
//     replicas, writes go to all K successors, and background
//     re-replication restores the replication factor after a shard
//     rejoins.
//
// Both speak the same content-key identity (ScenarioKey over the
// canonical scenario encoding), so a deployment can move between them
// without re-keying anything.
type Backend interface {
	// GetScenario returns the stored result for a scenario (any core
	// permutation of a stored identity hits), mapped to the caller's
	// core order.
	GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool)
	// PutScenario persists one scenario result under its content key.
	PutScenario(sc sim.Scenario, res sim.ScenarioResult) error
	// GetKey returns the full record under a raw content key.
	GetKey(key string) (Record, bool)
	// Len returns how many records the backend currently holds (for a
	// sharded backend: the distinct-key union across reachable shards).
	Len() int
	// Stats snapshots the backend's traffic counters.
	Stats() Stats
}

// The compile-time seams: both backends satisfy the contract (and
// therefore harness.ResultStore, which is a subset).
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Sharded)(nil)
)

// Real reports whether b is a usable backend: a non-nil interface
// holding a non-nil implementation. Callers that accept an optional
// Backend field should normalize with it — a typed-nil *Store smuggled
// through the interface compares non-nil but panics on first use.
func Real(b Backend) bool {
	switch v := b.(type) {
	case nil:
		return false
	case *Store:
		return v != nil
	case *Sharded:
		return v != nil
	default:
		return true
	}
}
