package btb

import (
	"testing"
	"unsafe"

	"shotgun/internal/footprint"
	"shotgun/internal/isa"
)

func TestGeometryFactoring(t *testing.T) {
	for _, entries := range []int{32, 64, 128, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 8192, 16384} {
		sets, ways, err := geometry(entries)
		if err != nil {
			t.Fatalf("geometry(%d): %v", entries, err)
		}
		if sets*ways != entries {
			t.Fatalf("geometry(%d) = %d x %d", entries, sets, ways)
		}
		if sets&(sets-1) != 0 {
			t.Fatalf("geometry(%d): sets %d not power of two", entries, sets)
		}
	}
	if _, _, err := geometry(0); err == nil {
		t.Fatal("geometry(0) accepted")
	}
	if _, _, err := geometry(17 * 13); err == nil {
		t.Fatal("unfactorable count accepted")
	}
}

func TestConventionalInsertLookup(t *testing.T) {
	b := MustNewConventional(2048)
	e := Entry{NumInstr: 5, Kind: isa.BranchCall, Target: 0x8000}
	b.Insert(0x1000, e)
	got, ok := b.Lookup(0x1000)
	if !ok || got != e {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, ok := b.Lookup(0x2000); ok {
		t.Fatal("phantom hit")
	}
	s := b.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

func TestConventionalEviction(t *testing.T) {
	b := MustNewConventional(64) // small, force conflicts
	n := 1000
	for i := 0; i < n; i++ {
		b.Insert(isa.Addr(0x1000+i*64), Entry{NumInstr: 4, Kind: isa.BranchCond, Target: 0x100})
	}
	if b.Occupancy() > 64 {
		t.Fatalf("occupancy %d exceeds capacity", b.Occupancy())
	}
}

func TestConventionalStorage(t *testing.T) {
	b := MustNewConventional(2048)
	// Paper: 2K entries x 93 bits = 23.25KB.
	if got := b.StorageBits(); got != 2048*93 {
		t.Fatalf("storage = %d bits", got)
	}
	if kb := float64(b.StorageBits()) / 8 / 1024; kb != 23.25 {
		t.Fatalf("storage = %v KB, want 23.25", kb)
	}
}

func TestShotgunRouting(t *testing.T) {
	s := MustNewShotgun(MustShotgunSizesForBudget(2048), footprint.Layout8)

	s.Insert(0x100, Entry{NumInstr: 4, Kind: isa.BranchCall, Target: 0x8000})
	s.Insert(0x200, Entry{NumInstr: 3, Kind: isa.BranchCond, Target: 0x300})
	s.Insert(0x300, Entry{NumInstr: 2, Kind: isa.BranchRet})
	s.Insert(0x400, Entry{NumInstr: 2, Kind: isa.BranchTrapRet})
	s.Insert(0x500, Entry{NumInstr: 2, Kind: isa.BranchNone}) // must not be stored

	if h := s.Lookup(0x100); h.Kind != HitU || !h.U.IsCall || h.U.Target != 0x8000 {
		t.Fatalf("call lookup = %+v", h)
	}
	if h := s.Lookup(0x200); h.Kind != HitC || h.C.Target != 0x300 {
		t.Fatalf("cond lookup = %+v", h)
	}
	if h := s.Lookup(0x300); h.Kind != HitR || h.R.IsTrapRet {
		t.Fatalf("ret lookup = %+v", h)
	}
	if h := s.Lookup(0x400); h.Kind != HitR || !h.R.IsTrapRet {
		t.Fatalf("trapret lookup = %+v", h)
	}
	if h := s.Lookup(0x500); h.Kind != HitNone {
		t.Fatalf("BranchNone stored: %+v", h)
	}
}

func TestShotgunFootprintPreservedOnReinsert(t *testing.T) {
	s := MustNewShotgun(MustShotgunSizesForBudget(2048), footprint.Layout8)
	s.Insert(0x100, Entry{NumInstr: 4, Kind: isa.BranchCall, Target: 0x8000})

	ok := s.CommitFootprint(footprint.Commit{Owner: 0x100, Vector: footprint.Layout8.Set(0, 2)})
	if !ok {
		t.Fatal("commit to resident entry failed")
	}
	// Re-insert (e.g. via predecode) must keep the footprint.
	s.Insert(0x100, Entry{NumInstr: 4, Kind: isa.BranchCall, Target: 0x8000})
	h := s.Lookup(0x100)
	if !footprint.Layout8.Contains(h.U.CallFoot, 2) {
		t.Fatal("re-insert dropped footprint")
	}
}

func TestShotgunReturnFootprint(t *testing.T) {
	s := MustNewShotgun(MustShotgunSizesForBudget(2048), footprint.Layout8)
	s.Insert(0x100, Entry{NumInstr: 4, Kind: isa.BranchCall, Target: 0x8000})
	s.CommitFootprint(footprint.Commit{Owner: 0x100, IsReturnRegion: true, Vector: footprint.Layout8.Set(0, 1)})

	v, ok := s.ReadReturnFootprint(0x100)
	if !ok || !footprint.Layout8.Contains(v, 1) {
		t.Fatalf("return footprint = %b, %v", v, ok)
	}
	// Non-call entries expose no return footprint.
	s.Insert(0x600, Entry{NumInstr: 4, Kind: isa.BranchJump, Target: 0x9000})
	if _, ok := s.ReadReturnFootprint(0x600); ok {
		t.Fatal("jump entry returned a return footprint")
	}
	if _, ok := s.ReadReturnFootprint(0xdead); ok {
		t.Fatal("absent entry returned a footprint")
	}
}

func TestShotgunCommitToEvictedDropped(t *testing.T) {
	s := MustNewShotgun(MustShotgunSizesForBudget(2048), footprint.Layout8)
	if s.CommitFootprint(footprint.Commit{Owner: 0x100, Vector: 1}) {
		t.Fatal("commit to absent entry succeeded")
	}
}

func TestStorageBudgetParity(t *testing.T) {
	// Section 5.2: Shotgun's three structures must cost within 3% of the
	// conventional BTB at every budget point of Figure 13.
	for _, entries := range []int{512, 1024, 2048, 4096, 8192} {
		conv := ConventionalStorageBits(entries)
		sz := MustShotgunSizesForBudget(entries)
		s := MustNewShotgun(sz, footprint.Layout8)
		got := s.StorageBits()
		ratio := float64(got) / float64(conv)
		if ratio < 0.90 || ratio > 1.10 {
			t.Fatalf("budget %d: shotgun %d bits vs conventional %d (ratio %.3f)",
				entries, got, conv, ratio)
		}
	}
}

func TestPaperStorageNumbers(t *testing.T) {
	// Section 5.2's exact numbers for the 2K-budget configuration:
	// U-BTB 19.87KB, C-BTB 1.1KB, RIB 2.8KB, total 23.77KB.
	s := MustNewShotgun(MustShotgunSizesForBudget(2048), footprint.Layout8)
	uKB := float64(s.U.Entries()*(UEntryBaseBits+16)) / 8 / 1024
	cKB := float64(s.C.Entries()*CEntryBits) / 8 / 1024
	rKB := float64(s.R.Entries()*REntryBits) / 8 / 1024
	total := float64(s.StorageBits()) / 8 / 1024
	if uKB < 19.8 || uKB > 19.95 {
		t.Fatalf("U-BTB = %.2fKB, paper says 19.87KB", uKB)
	}
	if cKB < 1.05 || cKB > 1.15 {
		t.Fatalf("C-BTB = %.2fKB, paper says 1.1KB", cKB)
	}
	if rKB < 2.75 || rKB > 2.85 {
		t.Fatalf("RIB = %.2fKB, paper says 2.8KB", rKB)
	}
	if total < 23.7 || total > 23.85 {
		t.Fatalf("total = %.2fKB, paper says 23.77KB", total)
	}
}

func TestUnknownBudget(t *testing.T) {
	if _, err := ShotgunSizesForBudget(1000); err == nil {
		t.Fatal("unknown budget accepted")
	}
}

func TestPrefetchBufferFIFO(t *testing.T) {
	b := NewPrefetchBuffer(2)
	b.Insert(0x100, Entry{NumInstr: 1, Kind: isa.BranchCond})
	b.Insert(0x200, Entry{NumInstr: 2, Kind: isa.BranchCond})
	b.Insert(0x300, Entry{NumInstr: 3, Kind: isa.BranchCond})
	if _, ok := b.Take(0x100); ok {
		t.Fatal("oldest not evicted")
	}
	if b.EvictedUnused != 1 {
		t.Fatalf("EvictedUnused = %d", b.EvictedUnused)
	}
	e, ok := b.Take(0x300)
	if !ok || e.NumInstr != 3 {
		t.Fatalf("take = %+v, %v", e, ok)
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
	if b.Hits != 1 {
		t.Fatalf("hits = %d", b.Hits)
	}
}

func TestPrefetchBufferOverwrite(t *testing.T) {
	b := NewPrefetchBuffer(4)
	b.Insert(0x100, Entry{NumInstr: 1, Kind: isa.BranchCond})
	b.Insert(0x100, Entry{NumInstr: 9, Kind: isa.BranchCond})
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
	if e, _ := b.Take(0x100); e.NumInstr != 9 {
		t.Fatalf("overwrite lost: %+v", e)
	}
}

func TestTableMutateNoLRUEffect(t *testing.T) {
	tab, err := newTable[int]("t", 8)
	if err != nil {
		t.Fatal(err)
	}
	tab.Update(0x100, 1)
	if !tab.Mutate(0x100, func(v *int) { *v = 42 }) {
		t.Fatal("mutate missed")
	}
	v, ok := tab.Peek(0x100)
	if !ok || v != 42 {
		t.Fatalf("peek = %d, %v", v, ok)
	}
	if tab.Stats().Lookups != 0 {
		t.Fatal("Mutate/Peek must not count lookups")
	}
}

func BenchmarkConventionalLookup(b *testing.B) {
	btb := MustNewConventional(2048)
	for i := 0; i < 2048; i++ {
		btb.Insert(isa.Addr(0x1000+i*20), Entry{NumInstr: 5, Kind: isa.BranchCond, Target: 0x100})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		btb.Lookup(isa.Addr(0x1000 + (i%4096)*20))
	}
}

func BenchmarkShotgunLookup(b *testing.B) {
	s := MustNewShotgun(MustShotgunSizesForBudget(2048), footprint.Layout8)
	for i := 0; i < 1536; i++ {
		s.Insert(isa.Addr(0x1000+i*20), Entry{NumInstr: 5, Kind: isa.BranchCall, Target: 0x100})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(isa.Addr(0x1000 + (i%4096)*20))
	}
}

func TestNoRIBAblation(t *testing.T) {
	sz, err := ShotgunSizesNoRIB(2048)
	if err != nil {
		t.Fatal(err)
	}
	if sz.REntries != 0 {
		t.Fatalf("REntries = %d", sz.REntries)
	}
	base := MustShotgunSizesForBudget(2048)
	if sz.UEntries <= base.UEntries {
		t.Fatalf("no-RIB U-BTB %d not larger than %d", sz.UEntries, base.UEntries)
	}
	s := MustNewShotgun(sz, footprint.Layout8)
	// Storage stays within a few percent of the with-RIB budget.
	withRIB := MustNewShotgun(base, footprint.Layout8).StorageBits()
	ratio := float64(s.StorageBits()) / float64(withRIB)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("no-RIB storage ratio %.3f", ratio)
	}
	// Returns land in the U-BTB and still hit.
	s.Insert(0x100, Entry{NumInstr: 2, Kind: isa.BranchRet})
	if h := s.Lookup(0x100); h.Kind != HitU {
		t.Fatalf("no-RIB return lookup = %v", h.Kind)
	}
}

// TestHostSizeEntry guards the 16-byte Entry (Target, then the one-byte
// size and kind) that every conventional BTB stores per way.
func TestHostSizeEntry(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want 16", got)
	}
	if isa.MaxBlockInstrs > 1<<8-1 {
		t.Fatalf("isa.MaxBlockInstrs = %d overflows Entry.NumInstr", isa.MaxBlockInstrs)
	}
}
