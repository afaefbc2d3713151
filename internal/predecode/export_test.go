package predecode

import (
	"sort"

	"shotgun/internal/isa"
	"shotgun/internal/program"
)

// Segment is one decoder segment's block-number range [Base, Base+Len).
type Segment struct{ Base, Len uint64 }

// Segments lists d's segments in block-number order.
func Segments(d *Decoder) []Segment {
	out := make([]Segment, len(d.segs))
	for i, s := range d.segs {
		out[i] = Segment{s.base, s.n}
	}
	return out
}

// RefNewDecoder is a map-based build of the decoder: one append per
// branch into a per-block map entry, a set of every cache block the
// static blocks span, and a sort over that set's keys to lay out the
// segments; the table is then filled slot by slot from the map.
func RefNewDecoder(prog *program.Program) *Decoder {
	byBlock := make(map[isa.Addr][]Branch)
	code := make(map[uint64]bool)
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			sb := &f.Blocks[bi]
			first, last := isa.BasicBlock{PC: f.BlockPC(bi), NumInstr: int(sb.NumInstr)}.BlockSpan()
			for blk := first; blk <= last; blk += isa.BlockBytes {
				code[blk.BlockIndex()] = true
			}
			if sb.Kind == isa.BranchNone {
				continue
			}
			branchPC := f.BlockPC(bi).Add(int(sb.NumInstr) - 1)
			cb := branchPC.Block()
			br := Branch{NumInstr: sb.NumInstr, Kind: sb.Kind, Off: uint8((branchPC - cb) / isa.InstrBytes)}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				br.Target = f.BlockPC(int(sb.TargetIdx))
			case isa.BranchCall, isa.BranchTrap:
				br.Target = prog.Func(sb.Callee).Entry()
			}
			byBlock[cb] = append(byBlock[cb], br)
		}
	}

	d := &Decoder{blocks: len(byBlock)}
	nums := make([]uint64, 0, len(code))
	for n := range code {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for i := 0; i < len(nums); {
		j := i + 1
		for j < len(nums) && nums[j]-nums[j-1] < segGapBlocks {
			j++
		}
		n := nums[j-1] - nums[i] + 1
		d.segs = append(d.segs, segment{base: nums[i], n: n, first: uint32(d.slots)})
		d.slots += int(n)
		i = j
	}
	d.off = make([]uint32, 1, d.slots+1)
	for _, seg := range d.segs {
		for n := seg.base; n < seg.base+seg.n; n++ {
			d.flat = append(d.flat, byBlock[isa.Addr(n*isa.BlockBytes)]...)
			d.off = append(d.off, uint32(len(d.flat)))
		}
	}
	return d
}
