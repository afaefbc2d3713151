package program_test

import (
	"slices"
	"testing"

	"shotgun/internal/program"
	"shotgun/internal/workload"
)

// TestCalleeCandidatesMatchReference holds the per-(group, layer) callee
// windows to the per-function filter they replaced: for every function
// of every profile's program, at the profile seed and three others, the
// builder must hand fillBody the same candidates in the same order.
func TestCalleeCandidatesMatchReference(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{p.Seed, 1, 42, 0x5eed_ffff} {
				got, want := program.CalleeCandidateLists(p.Gen, seed)
				for id := range want {
					if !slices.Equal(got[id], want[id]) || (got[id] == nil) != (want[id] == nil) {
						t.Fatalf("seed %#x: function %d candidates = %v, want %v", seed, id, got[id], want[id])
					}
				}
			}
		})
	}
}

// BenchmarkGenerate builds each profile's program at its real size, where
// a super-linear step in generation shows.
func BenchmarkGenerate(b *testing.B) {
	for _, p := range workload.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				program.MustGenerate(p.Gen, p.Seed)
			}
		})
	}
}
