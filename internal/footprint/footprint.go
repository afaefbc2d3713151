// Package footprint implements Shotgun's spatial footprints: compact
// bit-vector encodings of which cache blocks around a code region's entry
// point were touched during the region's last execution (Section 4.2.2).
//
// A Layout splits the vector into bits for blocks before and after the
// target block (the paper's 8-bit format uses 2 before + 6 after). The
// Recorder watches the retire-order basic-block stream, opens a region at
// every unconditional branch, accumulates touched blocks, and commits the
// finished footprint to its owner: the unconditional branch that opened
// the region — or, for return regions, the matching call (tracked with a
// shadow stack), which is where the U-BTB stores Return Footprints.
package footprint

import (
	"fmt"

	"shotgun/internal/isa"
)

// Vector is a spatial footprint: bit i set means the block at the i-th
// encoded distance from the region's target block was accessed. Use a
// Layout to interpret it.
type Vector uint64

// Layout defines the vector geometry: After bits for blocks at distances
// +1..+After, Before bits for blocks at distances -1..-Before. The target
// block itself is always fetched and needs no bit.
type Layout struct {
	Before, After int
}

// Paper configurations (Section 5.2 and the Figure 8/9 ablation).
var (
	// Layout8 is the paper's default: 8 bits, 6 after + 2 before.
	Layout8 = Layout{Before: 2, After: 6}
	// Layout32 is the ablation's 32-bit vector, split in the same 1:3
	// proportion (8 before + 24 after).
	Layout32 = Layout{Before: 8, After: 24}
)

// LayoutForBits maps a footprint width in bits to its paper layout:
// 8 is Layout8, 32 is Layout32.
func LayoutForBits(bits int) (Layout, error) {
	switch bits {
	case 8:
		return Layout8, nil
	case 32:
		return Layout32, nil
	}
	return Layout{}, fmt.Errorf("footprint bits must be 8 or 32 (got %d)", bits)
}

// Bits returns the storage cost of a footprint in bits.
func (l Layout) Bits() int { return l.Before + l.After }

// Validate rejects layouts that do not fit a Vector.
func (l Layout) Validate() error {
	if l.Before < 0 || l.After < 0 || l.Bits() == 0 || l.Bits() > 64 {
		return fmt.Errorf("footprint: invalid layout %+v", l)
	}
	return nil
}

// bitFor maps a block distance to a bit position, returning ok=false when
// the distance is outside the encodable window.
func (l Layout) bitFor(dist int) (uint, bool) {
	switch {
	case dist >= 1 && dist <= l.After:
		return uint(dist - 1), true
	case dist <= -1 && dist >= -l.Before:
		return uint(l.After + (-dist) - 1), true
	}
	return 0, false
}

// Set marks the block at the given distance (in cache blocks) from the
// target block. Distances outside the window are dropped — that is the
// encoding's precision/storage trade-off.
func (l Layout) Set(v Vector, dist int) Vector {
	if bit, ok := l.bitFor(dist); ok {
		return v | Vector(1)<<bit
	}
	return v
}

// Contains reports whether the block at the given distance is marked.
func (l Layout) Contains(v Vector, dist int) bool {
	bit, ok := l.bitFor(dist)
	return ok && v&(Vector(1)<<bit) != 0
}

// Blocks expands the footprint into the block addresses to prefetch
// around target (the target's own block is not included; callers fetch it
// unconditionally).
func (l Layout) Blocks(v Vector, target isa.Addr) []isa.Addr {
	return l.AppendBlocks(nil, v, target)
}

// AppendBlocks is Blocks appending into dst — the prefetch engines call
// it once per unconditional branch, so reusing one scratch slice keeps
// the region expansion allocation-free.
func (l Layout) AppendBlocks(dst []isa.Addr, v Vector, target isa.Addr) []isa.Addr {
	if v == 0 {
		return dst
	}
	base := target.Block()
	for d := 1; d <= l.After; d++ {
		if l.Contains(v, d) {
			dst = append(dst, base+isa.Addr(d*isa.BlockBytes))
		}
	}
	for d := 1; d <= l.Before; d++ {
		if l.Contains(v, -d) {
			dst = append(dst, base-isa.Addr(d*isa.BlockBytes))
		}
	}
	return dst
}

// PopCount returns the number of marked blocks.
func (v Vector) PopCount() int {
	n := 0
	for x := uint64(v); x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Commit is a finished region footprint.
type Commit struct {
	// Owner is the basic-block address of the unconditional branch that
	// owns this footprint in the U-BTB.
	Owner isa.Addr
	// IsReturnRegion selects which of the owner's two footprint fields
	// to update: the Return Footprint (true) or the Call Footprint.
	IsReturnRegion bool
	// Vector is the recorded footprint.
	Vector Vector
}

// Recorder accumulates spatial footprints from the retire stream.
type Recorder struct {
	layout     Layout
	contiguous bool

	active     bool
	owner      isa.Addr
	isReturn   bool
	entry      isa.Addr // region entry (target) block
	vec        Vector
	minD, maxD int

	// shadow stack pairing returns with their calls, so return-region
	// footprints can be attributed to the call's U-BTB entry.
	stack []isa.Addr

	// commit is the reusable buffer Observe returns a pointer into, so
	// the per-retire hot path never heap-allocates; it is valid until
	// the next Observe call.
	commit Commit

	// Commits counts finished regions; Dropped counts region accesses
	// outside the encodable window (precision loss).
	Commits uint64
	Dropped uint64
}

// NewRecorder builds a recorder with the given layout.
func NewRecorder(layout Layout) *Recorder {
	if err := layout.Validate(); err != nil {
		panic(err)
	}
	return &Recorder{layout: layout}
}

// NewContiguousRecorder builds a recorder for the paper's "Entire Region"
// ablation: instead of exact per-block bits, the committed vector marks
// every block between the region's lowest and highest accessed distance,
// modeling prefetching of the whole entry-to-exit span.
func NewContiguousRecorder(layout Layout) *Recorder {
	r := NewRecorder(layout)
	r.contiguous = true
	return r
}

// Layout returns the recorder's vector geometry.
func (r *Recorder) Layout() Layout { return r.layout }

// Observe consumes one retired basic block and returns a non-nil Commit
// when the block's unconditional branch closed a region. The returned
// pointer aliases a reusable internal buffer — consume it before the
// next Observe call.
func (r *Recorder) Observe(bb isa.BasicBlock) *Commit {
	// Accumulate this block's cache-block accesses into the open region.
	if r.active {
		first, last := bb.BlockSpan()
		for cb := first; cb <= last; cb += isa.BlockBytes {
			d := isa.BlockDistance(r.entry, cb)
			if d < r.minD {
				r.minD = d
			}
			if d > r.maxD {
				r.maxD = d
			}
			if d == 0 {
				continue // the target block needs no bit
			}
			if _, ok := r.layout.bitFor(d); !ok {
				r.Dropped++
				continue
			}
			r.vec = r.layout.Set(r.vec, d)
		}
	}

	if !bb.Kind.IsUnconditional() {
		return nil
	}

	// The unconditional branch closes the open region...
	var done *Commit
	if r.active {
		vec := r.vec
		if r.contiguous {
			vec = r.contiguousVector()
		}
		r.commit = Commit{Owner: r.owner, IsReturnRegion: r.isReturn, Vector: vec}
		done = &r.commit
		r.Commits++
	}

	// ...and opens the next one. Determine the new region's owner.
	blockAddr := bb.PC
	switch {
	case bb.Kind.IsCallLike():
		r.stack = append(r.stack, blockAddr)
		r.owner, r.isReturn = blockAddr, false
	case bb.Kind.IsReturn():
		if n := len(r.stack); n > 0 {
			r.owner = r.stack[n-1]
			r.stack = r.stack[:n-1]
			r.isReturn = true
		} else {
			// Request-boundary return with no matching call: record
			// the region against the return's own block as a call
			// footprint (it will simply never be read).
			r.owner, r.isReturn = blockAddr, false
		}
	default: // jump
		r.owner, r.isReturn = blockAddr, false
	}
	r.active = true
	r.entry = bb.Target.Block()
	r.vec = 0
	r.minD, r.maxD = 0, 0
	return done
}

// contiguousVector marks every encodable block between the region's
// lowest and highest accessed distance (the entry-to-exit span).
func (r *Recorder) contiguousVector() Vector {
	var v Vector
	for d := r.minD; d <= r.maxD; d++ {
		if d == 0 {
			continue
		}
		v = r.layout.Set(v, d)
	}
	return v
}
