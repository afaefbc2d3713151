package stream

import (
	"fmt"
	"testing"
	"unsafe"

	"shotgun/internal/isa"
)

// successors reads up to n slots recorded after pos through At.
func successors(s *SHIFT, pos uint64, n int) []uint32 {
	var out []uint32
	for i := uint64(1); i <= uint64(n); i++ {
		b, ok := s.At(pos + i)
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out
}

func TestRecordAndReplay(t *testing.T) {
	s := New(64, 32, 32)
	for _, b := range []uint32{1, 2, 3, 4, 5} {
		s.Record(b)
	}
	pos, ok := s.Find(2)
	if !ok {
		t.Fatal("trigger not found")
	}
	succ := successors(s, pos, 3)
	want := []uint32{3, 4, 5}
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
	s.Record(1)
	s.Record(1)
	s.Record(1)
	s.Record(2)
	if s.Head() != 2 {
		t.Fatalf("head = %d, want 2 (deduped)", s.Head())
	}
}

func TestStaleIndexEntryDies(t *testing.T) {
	s := New(4, 32, 32) // tiny history: 4 entries
	s.Record(0)
	for i := uint32(1); i <= 8; i++ {
		s.Record(i)
	}
	// Slot 0's history position has been overwritten.
	if _, ok := s.Find(0); ok {
		t.Fatal("stale index entry returned")
	}
}

func TestRepeatedStreamUpdatesIndex(t *testing.T) {
	s := New(64, 64, 64)
	// First pass: A B C, then unrelated blocks push A out of the
	// compaction window; second pass: A D E. Replay of A must give D E.
	const a, b, c, d, e = 10, 11, 12, 13, 14
	seq := []uint32{a, b, c}
	for i := uint32(0); i < compactWindow+1; i++ {
		seq = append(seq, 32+i)
	}
	seq = append(seq, a, d, e)
	for _, blk := range seq {
		s.Record(blk)
	}
	pos, ok := s.Find(a)
	if !ok {
		t.Fatal("not found")
	}
	succ := successors(s, pos, 2)
	if len(succ) != 2 || succ[0] != d || succ[1] != e {
		t.Fatalf("successors = %v, want [%d %d]", succ, d, e)
	}
}

func TestCompactionSuppressesLoopRetouch(t *testing.T) {
	s := New(64, 32, 32)
	// A tight loop alternating two blocks must not flood the history.
	for i := 0; i < 20; i++ {
		s.Record(1)
		s.Record(2)
	}
	if s.Head() != 2 {
		t.Fatalf("head = %d, want 2 (loop compacted)", s.Head())
	}
}

func TestIndexCapacityBounded(t *testing.T) {
	s := New(1<<16, 16, 1000)
	for i := uint32(0); i < 1000; i++ {
		s.Record(i)
	}
	if s.live > 16 {
		t.Fatalf("index grew to %d, cap 16", s.live)
	}
}

func TestSuccessorsTruncatedAtHead(t *testing.T) {
	s := New(64, 32, 32)
	s.Record(1)
	s.Record(2)
	pos, _ := s.Find(1)
	succ := successors(s, pos, 10)
	if len(succ) != 1 || succ[0] != 2 {
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

// TestHostSizeShift guards SHIFT's host footprint: 4-byte ring entries
// and an index of one 4-byte entry per slot, whatever the modeled index
// size.
func TestHostSizeShift(t *testing.T) {
	s := New(1<<10, 1<<17, 300)
	if got := unsafe.Sizeof(s.ring[0]); got != 4 {
		t.Fatalf("ring entry is %d bytes, want 4", got)
	}
	if got := unsafe.Sizeof(s.index[0]); got != 4 {
		t.Fatalf("index entry is %d bytes, want 4", got)
	}
	if len(s.ring) != 1<<10 || len(s.index) != 300 {
		t.Fatalf("ring %d and index %d entries, want %d and 300", len(s.ring), len(s.index), 1<<10)
	}
}

func BenchmarkRecord(b *testing.B) {
	s := New(32<<10, 8<<10, 5000)
	for i := 0; i < b.N; i++ {
		s.Record(uint32(i % 5000))
	}
}

// TestMatchesMapReference holds SHIFT to the map-based reference it
// replaced on random record and find sequences, at geometries where the
// ring wraps many times and, at most of them, the index cap binds: after
// every operation Head, every slot's Find and every position's At must
// agree. Slot k stands for block address (k+1)*BlockBytes, so address 0,
// which the reference's zeroed recency window treats as just recorded,
// is never used.
func TestMatchesMapReference(t *testing.T) {
	addr := func(slot uint32) isa.Addr { return isa.Addr(slot+1) * isa.BlockBytes }
	for _, g := range []struct{ history, index, slots int }{
		{4, 2, 12}, {8, 4, 24}, {16, 12, 20}, {16, 16, 40}, {5, 64, 12}, {32, 8, 64},
	} {
		t.Run(fmt.Sprintf("h%d_i%d_s%d", g.history, g.index, g.slots), func(t *testing.T) {
			s, ref := New(g.history, g.index, g.slots), newRefSHIFT(g.history, g.index)
			x := uint64(g.history*1000 + g.index)
			for op := 0; op < 4000; op++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := x >> 33
				slot := uint32(r>>2) % uint32(g.slots)
				if r&3 == 0 {
					slot %= uint32(g.slots/4 + 1) // a hot quarter re-records often
				}
				if r&3 != 3 {
					s.Record(slot)
					ref.Record(addr(slot))
				}
				if s.Head() != ref.head {
					t.Fatalf("op %d: Head %d, reference %d", op, s.Head(), ref.head)
				}
				for q := uint32(0); q < uint32(g.slots); q++ {
					p, ok := s.Find(q)
					rp, rok := ref.Find(addr(q))
					if p != rp || ok != rok {
						t.Fatalf("op %d: Find(%d) = (%d, %v), reference (%d, %v)", op, q, p, ok, rp, rok)
					}
				}
				lo := uint64(0)
				if h := s.Head(); h > uint64(2*g.history) {
					lo = h - uint64(2*g.history)
				}
				for pos := lo; pos <= s.Head()+1; pos++ {
					b, ok := s.At(pos)
					rb, rok := ref.At(pos)
					if ok != rok || (ok && addr(b) != rb) {
						t.Fatalf("op %d: At(%d) = (%d, %v), reference (%v, %v)", op, pos, b, ok, rb, rok)
					}
				}
			}
			if s.Head() < uint64(4*g.history) {
				t.Fatalf("ring wrapped only %d times", s.Head()/uint64(g.history))
			}
		})
	}
}

// TestFullIndexEvictionDeterministic: once the index is full, which
// entry makes room must follow from the record sequence alone. Two
// SHIFTs fed the same 100 blocks through a 4-entry index answer every
// Find identically after every record, and every hit names a live slot
// holding the block.
func TestFullIndexEvictionDeterministic(t *testing.T) {
	seq := make([]uint32, 100)
	x := uint64(1)
	for i := range seq {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = uint32((x >> 33) % 24)
	}
	a, b := New(8, 4, 24), New(8, 4, 24)
	for i, blk := range seq {
		a.Record(blk)
		b.Record(blk)
		if a.live > 4 {
			t.Fatalf("record %d: index holds %d entries, cap 4", i, a.live)
		}
		held := 0
		for q := range a.index {
			pos, ok := a.Find(uint32(q))
			if !ok {
				continue
			}
			held++
			if !a.inWindow(pos) {
				t.Fatalf("record %d: index keeps %d at overwritten position %d", i, q, pos)
			}
		}
		if held != a.live {
			t.Fatalf("record %d: %d slots indexed, live count %d", i, held, a.live)
		}
		for _, q := range seq {
			pa, okA := a.Find(q)
			pb, okB := b.Find(q)
			if pa != pb || okA != okB {
				t.Fatalf("record %d: Find(%d) = (%d, %v) and (%d, %v)", i, q, pa, okA, pb, okB)
			}
			if got, _ := a.At(pa); okA && got != q {
				t.Fatalf("record %d: Find(%d) points at a position holding %d", i, q, got)
			}
		}
	}
}

// TestFullIndexEvictsOverwrittenEntry pins the eviction rule: an entry
// is dropped when the ring overwrites its position, which makes room in
// a full index; while every entry is live, a new block stays unindexed.
func TestFullIndexEvictsOverwrittenEntry(t *testing.T) {
	s := New(4, 2, 8)
	for _, b := range []uint32{1, 2, 3, 4} {
		s.Record(b)
	}
	// Index full at {1, 2}; 3 and 4 found no room.
	for b, want := range map[uint32]bool{1: true, 2: true, 3: false, 4: false} {
		if _, ok := s.Find(b); ok != want {
			t.Fatalf("before wrap: Find(%d) = %v, want %v", b, ok, want)
		}
	}
	s.Record(5) // overwrites 1's position: its entry makes room
	for b, want := range map[uint32]bool{1: false, 2: true, 5: true} {
		if _, ok := s.Find(b); ok != want {
			t.Fatalf("after wrap: Find(%d) = %v, want %v", b, ok, want)
		}
	}
	if pos, _ := s.Find(5); pos != 4 {
		t.Fatalf("Find(5) = %d, want 4", pos)
	}
}

// TestStaleEntriesFreeIndexCapacity: an entry that goes stale while the
// index is below its cap must not hold capacity once the index fills.
// Block a is overwritten with the index two entries short of full; three
// new blocks then fill it, and each must still be indexed, although the
// positions they overwrite belong to loop blocks recorded again since.
func TestStaleEntriesFreeIndexCapacity(t *testing.T) {
	s := New(16, 12, 32)
	const a = 0
	s.Record(a)
	for i := uint32(0); i < 16; i++ { // nine loop blocks, each past the compaction window
		s.Record(10 + i%9)
	}
	if _, ok := s.Find(a); ok {
		t.Fatal("overwritten entry found")
	}
	for i := uint32(0); i < 3; i++ {
		b := 20 + i
		s.Record(b)
		if _, ok := s.Find(b); !ok {
			t.Fatalf("new block %d of 3 unindexed with %d of 12 entries held", i+1, s.live)
		}
	}
	if s.live != 12 {
		t.Fatalf("index holds %d entries, want 12", s.live)
	}
}

// TestIndexNeverRegrows records every slot of a program's numbering, at
// each profile's slot count, then keeps recording them in a skewed
// order until the ring has wrapped three times, and requires no
// allocation: the index is one array entry per slot, allocated by New,
// and neither filling it nor dropping entries as the ring overwrites
// their positions allocates.
func TestIndexNeverRegrows(t *testing.T) {
	const runs = 5
	for _, n := range []int{2124, 5519, 10340, 15666, 42754, 61663} {
		shifts := make([]*SHIFT, 2*runs) // AllocsPerRun adds a warm-up run
		for i := range shifts {
			shifts[i] = New(2*n, 1<<17, n)
		}
		next := 0
		// One run of five SHIFTs: AllocsPerRun truncates its mean per run,
		// so only a single run counts every allocation.
		allocs := testing.AllocsPerRun(1, func() {
			for range runs {
				s := shifts[next]
				next++
				for i := 0; i < n; i++ {
					s.Record(uint32(i))
				}
				if s.live != n {
					t.Fatalf("%d slots: index holds %d", n, s.live)
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
					s.Record(uint32((r >> 1) % span))
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("recording %d slots allocates %.0f times", n, allocs)
		}
		if s := shifts[len(shifts)-1]; s.Head() < uint64(3*len(s.ring)) {
			t.Fatalf("%d slots: ring wrapped only %d times", n, s.Head()/uint64(len(s.ring)))
		}
	}
}
