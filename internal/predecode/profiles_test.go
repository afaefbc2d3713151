package predecode_test

import (
	"slices"
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/predecode"
	"shotgun/internal/program"
	"shotgun/internal/workload"
)

func blockAddr(n uint64) isa.Addr { return isa.Addr(n * isa.BlockBytes) }

// TestNewDecoderMatchesReference holds the three-pass decoder build to
// the map-based build it replaced, on every profile's program: the same
// segments and block count, and the same Decode result, order and
// nil-ness included, for every block of every segment, the block just
// outside each end, and an address outside every segment.
func TestNewDecoderMatchesReference(t *testing.T) {
	for _, p := range workload.Profiles() {
		prog := p.Program()
		got, want := predecode.NewDecoder(prog), predecode.RefNewDecoder(prog)
		if got.Blocks() != want.Blocks() {
			t.Fatalf("%s: Blocks() = %d, want %d", p.Name, got.Blocks(), want.Blocks())
		}
		segs := predecode.Segments(want)
		if gs := predecode.Segments(got); !slices.Equal(gs, segs) {
			t.Fatalf("%s: segments %v, want %v", p.Name, gs, segs)
		}
		addrs := []isa.Addr{0}
		for _, s := range segs {
			for n := s.Base - 1; n <= s.Base+s.Len; n++ {
				addrs = append(addrs, blockAddr(n))
			}
		}
		for _, a := range addrs {
			g, w := got.Decode(a), want.Decode(a)
			if !slices.Equal(g, w) || (g == nil) != (w == nil) {
				t.Fatalf("%s: Decode(%v) = %v, want %v", p.Name, a, g, w)
			}
		}
	}
}

// TestSlotNumbering checks the dense numbering on every profile: every
// code block maps to a slot below Slots() and back to itself (so no two
// share a slot), and the blocks just below the application image, just
// past either image, midway between the images and at address 0 map to
// no slot.
func TestSlotNumbering(t *testing.T) {
	for _, p := range workload.Profiles() {
		prog := p.Program()
		d := predecode.NewDecoder(prog)
		var app, kern [2]uint64 // first and last code block of each image
		app[0], kern[0] = ^uint64(0), ^uint64(0)
		for _, f := range prog.Funcs {
			img := &kern
			if f.Role == program.RoleApp {
				img = &app
			}
			first, last := f.BlockSpan()
			img[0], img[1] = min(img[0], first), max(img[1], last)
			for bi, sb := range f.Blocks {
				lo, hi := isa.BasicBlock{PC: f.BlockPC(bi), NumInstr: int(sb.NumInstr)}.BlockSpan()
				for blk := lo; blk <= hi; blk += isa.BlockBytes {
					s, ok := d.Slot(blk)
					if !ok || int(s) >= d.Slots() {
						t.Fatalf("%s: code block %v has slot (%d, %v) of %d", p.Name, blk, s, ok, d.Slots())
					}
					if back := d.Block(s); back != blk {
						t.Fatalf("%s: code block %v takes slot %d, which maps back to %v", p.Name, blk, s, back)
					}
				}
			}
		}
		if app[1] >= kern[0] {
			t.Fatalf("%s: application image [%d, %d] does not lie below the kernel image [%d, %d]", p.Name, app[0], app[1], kern[0], kern[1])
		}
		for _, n := range []uint64{0, app[0] - 1, app[1] + 1, app[1] + (kern[0]-app[1])/2, kern[0] - 1, kern[1] + 1} {
			if s, ok := d.Slot(blockAddr(n)); ok {
				t.Fatalf("%s: non-code block %d maps to slot %d", p.Name, n, s)
			}
		}
		t.Logf("%s: %d slots", p.Name, d.Slots())
	}
}

// TestDecodedBlockPCs checks, on every profile, that each decoded
// branch's derived block PC is the PC of the static block it was built
// from: a cache block's branches come back in program order, so the
// k-th branch decoded from a block must be the k-th branch-ending static
// block whose branch lies in it.
func TestDecodedBlockPCs(t *testing.T) {
	for _, p := range workload.Profiles() {
		prog, d := p.Program(), p.Decoder()
		seen := make(map[isa.Addr]int) // branches checked per cache block
		for _, f := range prog.Funcs {
			for bi, sb := range f.Blocks {
				if sb.Kind == isa.BranchNone {
					continue
				}
				pc := f.BlockPC(bi)
				cb := pc.Add(int(sb.NumInstr) - 1).Block()
				brs := d.Decode(cb)
				k := seen[cb]
				seen[cb]++
				if k >= len(brs) {
					t.Fatalf("%s: block %v's branch missing from cache block %v", p.Name, pc, cb)
				}
				if got := brs[k].BlockPC(cb); got != pc || brs[k].NumInstr != sb.NumInstr || brs[k].Kind != sb.Kind {
					t.Fatalf("%s: branch %d of cache block %v is %+v at block %v, want block %v", p.Name, k, cb, brs[k], got, pc)
				}
			}
		}
		for cb, n := range seen {
			if len(d.Decode(cb)) != n {
				t.Fatalf("%s: cache block %v decodes %d branches, want %d", p.Name, cb, len(d.Decode(cb)), n)
			}
		}
	}
}

// TestDecodeBranchlessBlockIsNil checks that a block inside a segment
// holding no branch decodes to nil, not to an empty slice.
func TestDecodeBranchlessBlockIsNil(t *testing.T) {
	d := workload.MustGet("Oracle").Decoder()
	found := 0
	for _, s := range predecode.Segments(d) {
		for n := s.Base; n < s.Base+s.Len; n++ {
			if brs := d.Decode(blockAddr(n)); len(brs) == 0 {
				if brs != nil {
					t.Fatalf("branchless block %d decodes to empty non-nil %v", n, brs)
				}
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("Oracle's image has no branchless block inside a segment")
	}
}

// TestDecodeSlicesCapped checks that every returned slice's capacity is
// its length, so appending to one block's branches cannot overwrite the
// branches of the next block in the shared flat array.
func TestDecodeSlicesCapped(t *testing.T) {
	d := predecode.NewDecoder(workload.MustGet("Apache").Program())
	pairs := 0
	for _, s := range predecode.Segments(d) {
		for n := s.Base; n < s.Base+s.Len; n++ {
			brs := d.Decode(blockAddr(n))
			if cap(brs) != len(brs) {
				t.Fatalf("block %d: cap %d > len %d", n, cap(brs), len(brs))
			}
			next := d.Decode(blockAddr(n + 1))
			if len(brs) == 0 || len(next) == 0 {
				continue
			}
			before := slices.Clone(next)
			_ = append(brs, predecode.Branch{Target: 1})
			if after := d.Decode(blockAddr(n + 1)); !slices.Equal(after, before) {
				t.Fatalf("appending to block %d changed block %d: %v, want %v", n, n+1, after, before)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no adjacent blocks with branches")
	}
}

// BenchmarkNewDecoder builds the predecode image of Oracle, the largest
// profile.
func BenchmarkNewDecoder(b *testing.B) {
	prog := workload.MustGet("Oracle").Program()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predecode.NewDecoder(prog)
	}
}
