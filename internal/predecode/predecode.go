// Package predecode models the predecoders Boomerang and Shotgun attach
// to the L1-I fill path: given a fetched or prefetched cache block, they
// extract the branch instructions it contains and produce BTB metadata
// (basic-block start, size, branch kind, target).
//
// In hardware the predecoder decodes raw bytes; in this simulator the
// Decoder is built from the synthetic program's static structure, which
// yields exactly the same information.
package predecode

import (
	"cmp"
	"slices"

	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/program"
)

// Branch is one predecoded branch: the BTB entry payload plus the basic
// block's start address (the BTB index).
type Branch struct {
	BlockPC isa.Addr
	Entry   btb.Entry
}

// Decoder maps cache-block addresses to the branches whose terminating
// branch instruction lies inside that block.
//
// The program lays its code out as a small number of dense images (the
// application image and the kernel image), so instead of a hash map the
// decoder indexes a dense per-image slice by block number: Decode sits
// on the L1-I fill path of every prefetch probe, and the map hash
// dominated its cost.
type Decoder struct {
	segs       []decodeSeg
	blocks     int
	codeBlocks int
}

// decodeSeg covers one contiguous run of code blocks; branches[i] holds
// the branches of block number base+i.
type decodeSeg struct {
	base     uint64 // first block number of the run
	branches [][]Branch
}

// segGapBlocks is the block-number gap beyond which NewDecoder starts a
// new segment rather than padding the current one (images are packed;
// only the inter-image void exceeds this).
const segGapBlocks = 1 << 16

// NewDecoder indexes every static branch in the program by the cache
// block containing its branch instruction. It makes three passes and no
// map: collect and sort the branch block numbers and derive the segments;
// count the branches per block and prefix-sum the counts; then fill one
// flat branch array in program order (functions, then blocks), so a
// block's branches keep that order. Each block's slice is a
// capacity-capped window of the flat array, and a block without branches
// keeps a nil slice.
func NewDecoder(prog *program.Program) *Decoder {
	// Pass 1: slotOf[k] takes the cache-block number of the k-th branch
	// in program order (pass 2 turns it into the block's slot), and nums
	// the distinct block numbers, sorted. A function's blocks ascend, so
	// dropping repeats of the previous number on the way in leaves the
	// sort less than half the branches.
	slotOf := make([]uint64, 0, prog.StaticBranches())
	var nums []uint64
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			sb := &f.Blocks[bi]
			if sb.Kind == isa.BranchNone {
				continue
			}
			n := sb.PC.Add(sb.NumInstr - 1).BlockIndex()
			slotOf = append(slotOf, n)
			if len(nums) == 0 || nums[len(nums)-1] != n {
				nums = append(nums, n)
			}
		}
	}
	slices.Sort(nums)
	nums = slices.Compact(nums)

	// The segments tile one slot space: starts[s] is the slot of
	// segment s's base block.
	d := &Decoder{blocks: len(nums), codeBlocks: countCodeBlocks(prog)}
	var starts []uint64
	var slots uint64
	for i := 0; i < len(nums); {
		j := i + 1
		for j < len(nums) && nums[j]-nums[j-1] < segGapBlocks {
			j++
		}
		span := nums[j-1] - nums[i] + 1
		d.segs = append(d.segs, decodeSeg{base: nums[i], branches: make([][]Branch, span)})
		starts = append(starts, slots)
		slots += span
		i = j
	}

	// Pass 2: count the branches per slot; the prefix sum turns
	// next[slot] into the flat index of the slot's first branch.
	next := make([]int, slots+1)
	for k, n := range slotOf {
		si := 0
		for n-d.segs[si].base >= uint64(len(d.segs[si].branches)) {
			si++
		}
		slotOf[k] = starts[si] + n - d.segs[si].base
		next[slotOf[k]+1]++
	}
	for s := uint64(1); s <= slots; s++ {
		next[s] += next[s-1]
	}

	// Pass 3: fill the flat array in program order. Afterwards
	// next[slot] is the end of the slot's run, which is where the
	// following slot's run starts.
	flat := make([]Branch, len(slotOf))
	k := 0
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			sb := &f.Blocks[bi]
			if sb.Kind == isa.BranchNone {
				continue
			}
			entry := btb.Entry{NumInstr: uint8(sb.NumInstr), Kind: sb.Kind}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				entry.Target = f.Blocks[sb.TargetIdx].PC
			case isa.BranchCall, isa.BranchTrap:
				entry.Target = prog.Func(sb.Callee).Entry()
			}
			// Returns read targets from the RAS; no static target.
			flat[next[slotOf[k]]] = Branch{BlockPC: sb.PC, Entry: entry}
			next[slotOf[k]]++
			k++
		}
	}
	lo := 0
	for si := range d.segs {
		seg := &d.segs[si]
		for off := range seg.branches {
			hi := next[starts[si]+uint64(off)]
			if hi > lo {
				seg.branches[off] = flat[lo:hi:hi]
			}
			lo = hi
		}
	}
	return d
}

// Decode returns the branches whose branch instruction lies in the cache
// block containing addr. The returned slice is shared; callers must not
// mutate it.
func (d *Decoder) Decode(addr isa.Addr) []Branch {
	bi := addr.BlockIndex()
	for i := range d.segs {
		// Unsigned wrap makes a below-base block number fail the bound.
		if off := bi - d.segs[i].base; off < uint64(len(d.segs[i].branches)) {
			return d.segs[i].branches[off]
		}
	}
	return nil
}

// DecodeFor returns the predecoded entry for the basic block starting at
// blockPC, searching the cache block that holds its terminating branch.
// Used by reactive BTB fills, which know which basic block missed.
func (d *Decoder) DecodeFor(blockPC isa.Addr, branchPC isa.Addr) (Branch, bool) {
	for _, br := range d.Decode(branchPC) {
		if br.BlockPC == blockPC {
			return br, true
		}
	}
	return Branch{}, false
}

// Blocks returns the number of distinct cache blocks with branches.
func (d *Decoder) Blocks() int { return d.blocks }

// CodeBlocks returns the number of distinct cache blocks the program's
// static blocks span: every block an engine can see retire.
func (d *Decoder) CodeBlocks() int { return d.codeBlocks }

// countCodeBlocks counts the distinct cache blocks the program's code
// spans. A function's static blocks are contiguous, so each function
// covers one run of cache blocks; the runs, sorted by start, are merged.
func countCodeBlocks(prog *program.Program) int {
	runs := make([][2]uint64, len(prog.Funcs))
	for i, f := range prog.Funcs {
		runs[i][0], runs[i][1] = f.BlockSpan()
	}
	slices.SortFunc(runs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	n := 0
	var next uint64 // first block number not yet counted
	for _, r := range runs {
		lo := max(r[0], next)
		if r[1] >= lo {
			n += int(r[1] - lo + 1)
			next = r[1] + 1
		}
	}
	return n
}
