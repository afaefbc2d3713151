package store

import "shotgun/internal/sim"

// Backend is the result-store contract every consumer programs
// against: the harness runner's persistence hook (shotgun-bench) and
// the HTTP server's job table, which reads a key it does not track and
// puts each completed job's result, both take a Backend, never a
// concrete store. *Store, the on-disk store, is the one implementation
// here; the interface is the seam a caller decorates (the benchmark
// wraps it to time every get and put).
type Backend interface {
	// GetScenario returns the stored result for a scenario (any core
	// permutation of a stored identity hits), mapped to the caller's
	// core order.
	GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool)
	// PutScenario persists one scenario result under its content key.
	PutScenario(sc sim.Scenario, res sim.ScenarioResult) error
	// GetKey returns the full record under a raw content key.
	GetKey(key string) (Record, bool)
	// Len returns how many records the backend currently holds.
	Len() int
	// Stats snapshots the backend's traffic counters.
	Stats() Stats
}

// The compile-time seam: the store satisfies the contract (and
// therefore harness.ResultStore, which is a subset).
var _ Backend = (*Store)(nil)

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
	default:
		return true
	}
}
