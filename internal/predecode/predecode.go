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
	"math"
	"slices"

	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/program"
)

// Branch is one predecoded branch in 16 bytes: the BTB entry payload
// plus the branch instruction's position inside the cache block it was
// decoded from. The basic block's start address, the BTB index, is not
// stored: BlockPC derives it from that cache block's address.
type Branch struct {
	// Target is the taken target (zero for returns, which read the RAS).
	Target isa.Addr
	// NumInstr is the basic block's length in instructions.
	NumInstr uint8
	// Kind is the terminating branch kind.
	Kind isa.BranchKind
	// Off is the branch instruction's index, in instructions, inside its
	// cache block.
	Off uint8
}

// Entry returns the branch's BTB entry payload.
func (b Branch) Entry() btb.Entry {
	return btb.Entry{Target: b.Target, NumInstr: b.NumInstr, Kind: b.Kind}
}

// BlockPC returns the start address of the basic block the branch ends,
// given the address of the cache block it was decoded from (any address
// inside that block, such as the one passed to Decode). The basic block
// may start in an earlier cache block.
func (b Branch) BlockPC(block isa.Addr) isa.Addr {
	return block.Block().Add(int(b.Off) + 1 - int(b.NumInstr))
}

// Decoder maps cache-block addresses to the branches whose terminating
// branch instruction lies inside that block.
//
// It also gives the program's code blocks one dense numbering, the slots:
// the program lays its code out as a small number of dense images (the
// application image and the kernel image), so the decoder covers them
// with a few gap-bounded segments of consecutive block numbers and
// numbers the blocks of each segment in order. Every code block has a
// slot, and so do the few padding blocks between functions; a block
// outside every segment has none. Slot and Block map either way with a
// compare per segment plus an offset, no hash and no search. Decode sits
// on the L1-I fill path of every prefetch probe, and Confluence's SHIFT
// keeps its history and index in slots (package stream).
type Decoder struct {
	segs  []segment
	slots int
	// off and flat are the predecode table: the branches of slot s are
	// flat[off[s]:off[s+1]], in program order.
	off    []uint32
	flat   []Branch
	blocks int
}

// segment covers the block numbers [base, base+n), which take the slots
// [first, first+n).
type segment struct {
	base  uint64
	n     uint64
	first uint32
}

// segGapBlocks is the block-number gap beyond which NewDecoder starts a
// new segment rather than padding the current one (images are packed;
// only the inter-image void exceeds this).
const segGapBlocks = 1 << 16

// NewDecoder numbers the program's code blocks and indexes every static
// branch by the slot of the cache block holding its branch instruction.
// It makes three passes and no map: lay the segments over the functions'
// block spans; count the branches per slot and prefix-sum the counts;
// then fill one flat branch array in program order (functions, then
// blocks), so a block's branches keep that order.
func NewDecoder(prog *program.Program) *Decoder {
	// Pass 1: number the code blocks, segment by segment.
	d := &Decoder{segs: codeSegments(prog)}
	for i := range d.segs {
		d.segs[i].first = uint32(d.slots)
		d.slots += int(d.segs[i].n)
	}
	if uint64(d.slots) >= math.MaxUint32 {
		panic("predecode: code blocks overflow the slot numbering")
	}

	// Pass 2: count each slot's branches into off[slot+2]; the prefix sum
	// turns off[slot+1] into the flat index of the slot's first branch.
	off := make([]uint32, d.slots+2)
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			if f.Blocks[bi].Kind != isa.BranchNone {
				off[d.branchSlot(branchPC(f, bi))+2]++
			}
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}

	// Pass 3: fill the flat array, advancing off[slot+1] past each
	// branch. Afterwards off[slot+1] is the end of the slot's run, which
	// is where the following slot's run starts, so off[:slots+1] bounds
	// every slot.
	d.flat = make([]Branch, off[len(off)-1])
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			sb := &f.Blocks[bi]
			if sb.Kind == isa.BranchNone {
				continue
			}
			pc := branchPC(f, bi)
			br := Branch{NumInstr: sb.NumInstr, Kind: sb.Kind, Off: uint8(pc.Offset() / isa.InstrBytes)}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				br.Target = f.BlockPC(int(sb.TargetIdx))
			case isa.BranchCall, isa.BranchTrap:
				br.Target = prog.Func(sb.Callee).Entry()
			}
			// Returns read targets from the RAS; no static target.
			s := d.branchSlot(pc) + 1
			d.flat[off[s]] = br
			off[s]++
		}
	}
	d.off = off[: d.slots+1 : d.slots+1]
	for s := range d.slots {
		if d.off[s+1] > d.off[s] {
			d.blocks++
		}
	}
	return d
}

// codeSegments lays gap-bounded segments over the program's code. A
// function's static blocks are contiguous, so each function spans one
// run of cache blocks; the runs, sorted by start, are merged into one
// segment while the gap to the next run is under segGapBlocks.
func codeSegments(prog *program.Program) []segment {
	runs := make([][2]uint64, len(prog.Funcs))
	for i, f := range prog.Funcs {
		runs[i][0], runs[i][1] = f.BlockSpan()
	}
	slices.SortFunc(runs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	var segs []segment
	for i := 0; i < len(runs); {
		lo, hi := runs[i][0], runs[i][1]
		for i++; i < len(runs) && runs[i][0] < hi+segGapBlocks; i++ {
			hi = max(hi, runs[i][1])
		}
		segs = append(segs, segment{base: lo, n: hi - lo + 1})
	}
	return segs
}

// branchPC returns the address of the branch that ends block bi of f.
func branchPC(f *program.Function, bi int) isa.Addr {
	return f.BlockPC(bi).Add(int(f.Blocks[bi].NumInstr) - 1)
}

// branchSlot returns the slot of the cache block holding the branch at pc.
func (d *Decoder) branchSlot(pc isa.Addr) uint32 {
	s, ok := d.Slot(pc)
	if !ok {
		panic("predecode: branch outside the program's code")
	}
	return s
}

// Slot returns the slot of the cache block containing addr, and false if
// that block lies outside the program's code segments.
func (d *Decoder) Slot(addr isa.Addr) (uint32, bool) {
	bi := addr.BlockIndex()
	for i := range d.segs {
		// Unsigned wrap makes a below-base block number fail the bound.
		if off := bi - d.segs[i].base; off < d.segs[i].n {
			return d.segs[i].first + uint32(off), true
		}
	}
	return 0, false
}

// Block returns the address of the cache block numbered slot; it panics
// on a slot that Slot never returns.
func (d *Decoder) Block(slot uint32) isa.Addr {
	for i := range d.segs {
		if off := uint64(slot - d.segs[i].first); off < d.segs[i].n {
			return isa.Addr((d.segs[i].base + off) * isa.BlockBytes)
		}
	}
	panic("predecode: slot outside the numbering")
}

// Slots returns the number of slots: every slot is below it.
func (d *Decoder) Slots() int { return d.slots }

// Decode returns the branches whose branch instruction lies in the cache
// block containing addr, or nil if it holds none. The returned slice is
// shared and capacity-capped; callers must not mutate it.
func (d *Decoder) Decode(addr isa.Addr) []Branch {
	s, ok := d.Slot(addr)
	if !ok {
		return nil
	}
	lo, hi := d.off[s], d.off[s+1]
	if lo == hi {
		return nil
	}
	return d.flat[lo:hi:hi]
}

// Blocks returns the number of distinct cache blocks with branches.
func (d *Decoder) Blocks() int { return d.blocks }
