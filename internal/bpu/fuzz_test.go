package bpu

import (
	"math/bits"
	"testing"

	"shotgun/internal/isa"
)

// FuzzCLZIndex holds the CLZ-rotated history fold — and the table
// indexing built on it — to its range contract for arbitrary history
// registers and PCs: clzFold always lands below 1<<outBits (a
// violation would index out of a tagged table), agrees with itself on
// repeated evaluation, matches the reference fold that takes the
// rotation modulo the width, and the CLZ-TAGE lookup path derives in-range
// table indices and non-zero tags from it. Wired into the CI
// fuzz-smoke job next to the delta-matcher target.
func FuzzCLZIndex(f *testing.F) {
	f.Add(uint64(0), uint64(0x1000))
	f.Add(^uint64(0), uint64(0x7fff_ffff_fffc))
	f.Add(uint64(0xaaaa_aaaa_aaaa_aaaa), uint64(64))
	f.Add(uint64(1)<<63, uint64(0))

	f.Fuzz(func(t *testing.T, ghist, pc uint64) {
		tage := NewCLZTAGE()
		tage.ghist = ghist
		for _, hl := range tage.histLen {
			for _, outBits := range []int{tableBits, tagBits} {
				v := clzFold(ghist, hl, outBits)
				if v >= 1<<uint(outBits) {
					t.Fatalf("clzFold(%#x, %d, %d) = %#x escapes %d bits", ghist, hl, outBits, v, outBits)
				}
				if v2 := clzFold(ghist, hl, outBits); v2 != v {
					t.Fatalf("clzFold not deterministic: %#x then %#x", v, v2)
				}
				if want := refCLZFold(ghist, hl, outBits); v != want {
					t.Fatalf("clzFold(%#x, %d, %d) = %#x, reference fold gives %#x", ghist, hl, outBits, v, want)
				}
			}
		}
		// The lookup path built on the folds: indices in range, tags
		// non-zero (zero is the empty-slot sentinel).
		for i := 0; i < numTables; i++ {
			if idx := tage.index(i, isa.Addr(pc)); idx < 0 || idx >= 1<<tableBits {
				t.Fatalf("table %d index %d out of range", i, idx)
			}
			if tag := tage.tag(i, isa.Addr(pc)); tag == 0 || tag >= 1<<tagBits {
				t.Fatalf("table %d tag %#x out of range", i, tag)
			}
		}
		// A full predict/update round trip on the fuzzed history must
		// not panic and must keep counters coherent.
		tage.foldsValid = false
		pred := tage.Predict(isa.Addr(pc))
		tage.Update(isa.Addr(pc), !pred)
		if tage.Mispredicts == 0 {
			t.Fatal("forced mispredict not counted")
		}
	})
}

// refCLZFold is clzFold as first written, taking each chunk's rotation
// as the running fold's leading-zero count modulo outBits.
func refCLZFold(h uint64, lenBits, outBits int) uint64 {
	h &= (1 << uint(lenBits)) - 1
	mask := uint64(1)<<uint(outBits) - 1
	var f uint64
	for h != 0 {
		chunk := h & mask
		rot := bits.LeadingZeros64(f|1) % outBits
		f ^= (chunk<<uint(rot) | chunk>>uint(outBits-rot)) & mask
		h >>= uint(outBits)
	}
	return f
}
