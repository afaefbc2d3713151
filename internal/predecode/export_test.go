package predecode

import (
	"sort"

	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/program"
)

// Segment is one decoder segment's block-number range [Base, Base+Len).
type Segment struct{ Base, Len uint64 }

// Segments lists d's segments in block-number order.
func Segments(d *Decoder) []Segment {
	out := make([]Segment, len(d.segs))
	for i, s := range d.segs {
		out[i] = Segment{s.base, uint64(len(s.branches))}
	}
	return out
}

// RefNewDecoder is the map-based NewDecoder the three-pass build
// replaced: one append per branch into a per-block map entry, then a
// sort over the map's keys to lay out the segments.
func RefNewDecoder(prog *program.Program) *Decoder {
	byBlock := make(map[isa.Addr][]Branch)
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			sb := &f.Blocks[bi]
			if sb.Kind == isa.BranchNone {
				continue
			}
			branchPC := sb.PC.Add(sb.NumInstr - 1)
			cb := branchPC.Block()
			entry := btb.Entry{NumInstr: uint8(sb.NumInstr), Kind: sb.Kind}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				entry.Target = f.Blocks[sb.TargetIdx].PC
			case isa.BranchCall, isa.BranchTrap:
				entry.Target = prog.Func(sb.Callee).Entry()
			}
			byBlock[cb] = append(byBlock[cb], Branch{BlockPC: sb.PC, Entry: entry})
		}
	}

	d := &Decoder{blocks: len(byBlock)}
	nums := make([]uint64, 0, len(byBlock))
	for cb := range byBlock {
		nums = append(nums, cb.BlockIndex())
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for i := 0; i < len(nums); {
		j := i + 1
		for j < len(nums) && nums[j]-nums[j-1] < segGapBlocks {
			j++
		}
		seg := decodeSeg{
			base:     nums[i],
			branches: make([][]Branch, nums[j-1]-nums[i]+1),
		}
		for _, n := range nums[i:j] {
			seg.branches[n-seg.base] = byBlock[isa.Addr(n*isa.BlockBytes)]
		}
		d.segs = append(d.segs, seg)
		i = j
	}
	return d
}
