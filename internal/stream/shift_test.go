package stream

import (
	"testing"

	"shotgun/internal/isa"
)

func TestRecordAndReplay(t *testing.T) {
	s := New(64, 32, 32)
	seq := []isa.Addr{0x1000, 0x2000, 0x3000, 0x4000, 0x5000}
	for _, b := range seq {
		s.Record(b)
	}
	pos, ok := s.Find(0x2000)
	if !ok {
		t.Fatal("trigger not found")
	}
	succ := s.Successors(pos, 3)
	want := []isa.Addr{0x3000, 0x4000, 0x5000}
	if len(succ) != 3 {
		t.Fatalf("successors = %v", succ)
	}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("successors = %v, want %v", succ, want)
		}
	}
}

func TestConsecutiveDedup(t *testing.T) {
	s := New(64, 32, 32)
	s.Record(0x1000)
	s.Record(0x1000)
	s.Record(0x1000)
	s.Record(0x2000)
	if s.Head() != 2 {
		t.Fatalf("head = %d, want 2 (deduped)", s.Head())
	}
}

func TestStaleIndexEntryDies(t *testing.T) {
	s := New(4, 32, 32) // tiny history: 4 entries
	s.Record(0x1000)
	for i := 1; i <= 8; i++ {
		s.Record(isa.Addr(0x2000 + i*0x40))
	}
	// 0x1000's history slot has been overwritten.
	if _, ok := s.Find(0x1000); ok {
		t.Fatal("stale index entry returned")
	}
}

func TestRepeatedStreamUpdatesIndex(t *testing.T) {
	s := New(64, 64, 64)
	// First pass: A B C, then unrelated blocks push A out of the
	// compaction window; second pass: A D E. Replay of A must give D E.
	seq := []isa.Addr{0xa000, 0xb000, 0xc000}
	for i := 0; i < compactWindow+1; i++ {
		seq = append(seq, isa.Addr(0x100000+i*0x40))
	}
	seq = append(seq, 0xa000, 0xd000, 0xe000)
	for _, b := range seq {
		s.Record(b)
	}
	pos, ok := s.Find(0xa000)
	if !ok {
		t.Fatal("not found")
	}
	succ := s.Successors(pos, 2)
	if len(succ) != 2 || succ[0] != 0xd000 || succ[1] != 0xe000 {
		t.Fatalf("successors = %v, want [0xd000 0xe000]", succ)
	}
}

func TestCompactionSuppressesLoopRetouch(t *testing.T) {
	s := New(64, 32, 32)
	// A tight loop alternating two blocks must not flood the history.
	for i := 0; i < 20; i++ {
		s.Record(0x1000)
		s.Record(0x2000)
	}
	if s.Head() != 2 {
		t.Fatalf("head = %d, want 2 (loop compacted)", s.Head())
	}
}

func TestIndexCapacityBounded(t *testing.T) {
	s := New(1<<16, 16, 16)
	for i := 0; i < 1000; i++ {
		s.Record(isa.Addr(i * 0x40))
	}
	if len(s.index) > 16 {
		t.Fatalf("index grew to %d, cap 16", len(s.index))
	}
}

func TestSuccessorsTruncatedAtHead(t *testing.T) {
	s := New(64, 32, 32)
	s.Record(0x1000)
	s.Record(0x2000)
	pos, _ := s.Find(0x1000)
	succ := s.Successors(pos, 10)
	if len(succ) != 1 || succ[0] != 0x2000 {
		t.Fatalf("successors = %v", succ)
	}
}

func TestStorageBitsRealistic(t *testing.T) {
	// The paper's Confluence configuration: 32K-entry history + 8K-entry
	// index — hundreds of KB of metadata.
	s := New(32<<10, 8<<10, 8<<10)
	kb := float64(s.StorageBits()) / 8 / 1024
	if kb < 150 || kb > 300 {
		t.Fatalf("SHIFT metadata = %.0fKB, expected hundreds of KB", kb)
	}
}

func BenchmarkRecord(b *testing.B) {
	s := New(32<<10, 8<<10, 8<<10)
	for i := 0; i < b.N; i++ {
		s.Record(isa.Addr((i % 5000) * 64))
	}
}

// TestFullIndexEvictionDeterministic: once the index is full, which
// entry makes room must follow from the record sequence alone. Two
// SHIFTs fed the same 100 blocks through a 4-entry index answer every
// Find identically after every record, and every hit names a live slot
// holding the block.
func TestFullIndexEvictionDeterministic(t *testing.T) {
	seq := make([]isa.Addr, 100)
	x := uint64(1)
	for i := range seq {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = isa.Addr((x >> 33) % 24 * isa.BlockBytes)
	}
	a, b := New(8, 4, 4), New(8, 4, 4)
	for i, blk := range seq {
		a.Record(blk)
		b.Record(blk)
		if len(a.index) > 4 {
			t.Fatalf("record %d: index holds %d entries, cap 4", i, len(a.index))
		}
		for blk, pos := range a.index {
			if !a.live(pos) {
				t.Fatalf("record %d: index keeps %v at overwritten position %d", i, blk, pos)
			}
		}
		for _, q := range seq {
			pa, okA := a.Find(q)
			pb, okB := b.Find(q)
			if pa != pb || okA != okB {
				t.Fatalf("record %d: Find(%v) = (%d, %v) and (%d, %v)", i, q, pa, okA, pb, okB)
			}
			if got, _ := a.At(pa); okA && got != q {
				t.Fatalf("record %d: Find(%v) points at a slot holding %v", i, q, got)
			}
		}
	}
}

// TestFullIndexEvictsOverwrittenEntry pins the eviction rule: an entry
// is dropped when the ring overwrites its slot, which makes room in a
// full index; while every entry is live, a new block stays unindexed.
func TestFullIndexEvictsOverwrittenEntry(t *testing.T) {
	s := New(4, 2, 2)
	for _, b := range []isa.Addr{0x1000, 0x2000, 0x3000, 0x4000} {
		s.Record(b)
	}
	// Index full at {0x1000, 0x2000}; 0x3000 and 0x4000 found no room.
	for b, want := range map[isa.Addr]bool{0x1000: true, 0x2000: true, 0x3000: false, 0x4000: false} {
		if _, ok := s.Find(b); ok != want {
			t.Fatalf("before wrap: Find(%v) = %v, want %v", b, ok, want)
		}
	}
	s.Record(0x5000) // overwrites 0x1000's slot: its entry makes room
	for b, want := range map[isa.Addr]bool{0x1000: false, 0x2000: true, 0x5000: true} {
		if _, ok := s.Find(b); ok != want {
			t.Fatalf("after wrap: Find(%v) = %v, want %v", b, ok, want)
		}
	}
	if pos, _ := s.Find(0x5000); pos != 4 {
		t.Fatalf("Find(0x5000) = %d, want 4", pos)
	}
}

// TestStaleEntriesFreeIndexCapacity: an entry that goes stale while the
// index is below its cap must not hold capacity once the index fills.
// Block a is overwritten with the index two entries short of full; three
// new blocks then fill it, and each must still be indexed, although the
// slots they overwrite belong to loop blocks recorded again since.
func TestStaleEntriesFreeIndexCapacity(t *testing.T) {
	s := New(16, 12, 12)
	const a = isa.Addr(0x100000)
	s.Record(a)
	for i := 0; i < 16; i++ { // nine loop blocks, each past the compaction window
		s.Record(isa.Addr(0x200000 + i%9*isa.BlockBytes))
	}
	if _, ok := s.Find(a); ok {
		t.Fatal("overwritten entry found")
	}
	for i := 0; i < 3; i++ {
		b := isa.Addr(0x300000 + i*isa.BlockBytes)
		s.Record(b)
		if _, ok := s.Find(b); !ok {
			t.Fatalf("new block %d of 3 unindexed with %d of 12 entries held", i+1, len(s.index))
		}
	}
	if len(s.index) != 12 {
		t.Fatalf("index holds %d entries, want 12", len(s.index))
	}
}

// TestIndexNeverRegrows records as many distinct blocks as the index
// was presized for, at each profile's code-block count, then keeps
// recording them in a skewed order until the ring has wrapped three
// times, and requires no allocation: a walker-driven Confluence engine
// can record no other blocks, so its index is allocated once, and the
// entries dropped as the ring overwrites their slots leave no tombstones
// that would force the map to grow. Each run fills a new map, with a new
// hash seed.
func TestIndexNeverRegrows(t *testing.T) {
	const runs = 5
	for _, n := range []int{1766, 4728, 9590, 13229, 38133, 55336} {
		shifts := make([]*SHIFT, runs+1) // AllocsPerRun adds a warm-up run
		for i := range shifts {
			shifts[i] = New(2*n, 1<<17, n)
		}
		next := 0
		avg := testing.AllocsPerRun(runs, func() {
			s := shifts[next]
			next++
			for i := 0; i < n; i++ {
				s.Record(isa.Addr(i * isa.BlockBytes))
			}
			if len(s.index) != n {
				t.Fatalf("%d blocks: index holds %d", n, len(s.index))
			}
			// Half the records come from the hottest sixteenth of the
			// code, so cold blocks go stale and return.
			x := uint64(next)
			for i := 0; i < 8*n; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := x >> 33
				span := uint64(n)
				if r&1 == 0 {
					span = uint64(n/16 + 1)
				}
				s.Record(isa.Addr((r >> 1) % span * isa.BlockBytes))
			}
		})
		if avg != 0 {
			t.Fatalf("recording %d distinct blocks allocates %.1f times", n, avg)
		}
		if s := shifts[runs]; s.Head() < uint64(3*len(s.ring)) {
			t.Fatalf("%d blocks: ring wrapped only %d times", n, s.Head()/uint64(len(s.ring)))
		}
	}
}
