package program_test

import (
	"slices"
	"testing"
	"unsafe"

	"shotgun/internal/isa"
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

// TestBlockPCsAreRunningSums checks the derived block addresses on every
// profile: block i of a function starts at the function's entry plus the
// sizes of blocks 0..i-1, and the function ends where its last block
// does.
func TestBlockPCsAreRunningSums(t *testing.T) {
	for _, p := range workload.Profiles() {
		for _, f := range p.Program().Funcs {
			pc := f.Entry()
			for bi, sb := range f.Blocks {
				if got := f.BlockPC(bi); got != pc {
					t.Fatalf("%s: function %d block %d at %v, want %v", p.Name, f.ID, bi, got, pc)
				}
				pc += isa.Addr(sb.NumInstr) * isa.InstrBytes
			}
			if f.End() != pc {
				t.Fatalf("%s: function %d ends at %v, want %v", p.Name, f.ID, f.End(), pc)
			}
		}
	}
}

// TestBlocksShareOneSlab checks that every profile's program holds its
// blocks in one slab: each function's blocks start where the previous
// function's (in ID order) end, and each sub-slice is capacity-capped, so
// appending to one function's blocks cannot overwrite the next one's.
func TestBlocksShareOneSlab(t *testing.T) {
	size := unsafe.Sizeof(program.StaticBlock{})
	for _, p := range workload.Profiles() {
		funcs := p.Program().Funcs
		for i, f := range funcs {
			if cap(f.Blocks) != len(f.Blocks) {
				t.Fatalf("%s: function %d has cap %d > len %d", p.Name, f.ID, cap(f.Blocks), len(f.Blocks))
			}
			if i == 0 {
				continue
			}
			prev := funcs[i-1].Blocks
			end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev))*size)
			if start := unsafe.Pointer(unsafe.SliceData(f.Blocks)); start != end {
				t.Fatalf("%s: function %d's blocks do not follow function %d's in one slab", p.Name, f.ID, funcs[i-1].ID)
			}
		}
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
