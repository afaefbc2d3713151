// Package stream implements the temporal-streaming substrate behind
// Confluence: SHIFT's shared instruction history (Kaynak et al.,
// MICRO'13/'15). A circular history buffer records the retire-order L1-I
// block access stream; an index table maps a block address to its most
// recent history position. On an L1-I miss the prefetcher looks the block
// up in the index and replays the blocks that followed it last time.
//
// In the real design both structures are virtualized into the LLC; the
// capacity they displace and the LLC round-trip on every stream restart
// are modeled by the Confluence engine (package prefetch), not here.
//
// SHIFT keeps its state in slots, the dense numbering of the program's
// code blocks that predecode.Decoder provides: the caller maps a block
// to its slot (Decoder.Slot) before Record or Find, and back to an
// address (Decoder.Block) after At. A block outside the program's code
// has no slot, so it is never recorded and never found. No simulation
// sees a difference: only retired blocks are recorded, and a retired
// block is always code, so a block without a slot could never have been
// found either. A trace replayed through sim.RunStream must therefore
// come from the workload's own program.
//
// Host memory: the ring holds 4-byte slots, and the index is one 4-byte
// entry per slot, so the index costs only what the program's code can
// occupy and recording never allocates. The ring is allocated whole, at
// the modeled history size, because a lazily grown ring would allocate
// on the hot path for as long as the history fills. An entry is dropped
// as soon as the ring overwrites its position, so the index holds only
// live entries.
package stream

import "shotgun/internal/isa"

// SHIFT is the shared history + index table.
type SHIFT struct {
	ring []uint32 // slots, in record order
	head uint64   // total records; next write position is head % len(ring)

	// index[slot] is 0 for an unindexed slot, else indexed plus the
	// slot's most recent history position modulo 2^31. Every entry lies
	// within one ring length (below 2^31) of head, so the residue
	// recovers the position exactly (Find).
	index    []uint32
	live     int // indexed slots
	indexCap int

	// recent is a small recency window implementing spatio-temporal
	// compaction: re-touches of a just-recorded block (loops, straddling
	// basic blocks) are not re-recorded, so the history span covers the
	// footprint rather than the raw access count.
	recent    [compactWindow]uint32
	recentPos int
}

// compactWindow is the compaction recency depth.
const compactWindow = 8

const (
	// indexed marks an index entry in use; the bits below it hold the
	// position modulo 2^31.
	indexed = 1 << 31
	posMask = indexed - 1
	// noSlot fills the empty recency window; New admits no such slot.
	noSlot = ^uint32(0)
)

// New builds a SHIFT history of historyEntries blocks with an index table
// bounded at indexEntries (the paper models 32K history + 8K index), over
// slots slots (predecode.Decoder.Slots): every recorded or probed slot
// is below it.
func New(historyEntries, indexEntries, slots int) *SHIFT {
	if historyEntries <= 0 || historyEntries > posMask || indexEntries <= 0 ||
		slots < 0 || uint64(slots) > uint64(noSlot) {
		panic("stream: invalid SHIFT geometry")
	}
	s := &SHIFT{
		ring:     make([]uint32, historyEntries),
		index:    make([]uint32, slots),
		indexCap: indexEntries,
	}
	for i := range s.recent {
		s.recent[i] = noSlot
	}
	return s
}

// Record appends a block access to the history (recently recorded blocks
// are compacted away, as SHIFT's spatio-temporal compaction would) and
// points the index at it.
func (s *SHIFT) Record(slot uint32) {
	for _, r := range s.recent {
		if r == slot {
			return
		}
	}
	s.recent[s.recentPos] = slot
	s.recentPos = (s.recentPos + 1) % compactWindow

	w := s.head % uint64(len(s.ring))
	s.dropOverwritten(w)
	s.ring[w] = slot
	s.head++
	if s.index[slot] == 0 {
		if s.live >= s.indexCap {
			// Every entry is live: the block stays unindexed. Hardware
			// would overwrite a set way; this rule depends only on the
			// record sequence.
			return
		}
		s.live++
	}
	s.index[slot] = indexed | uint32(s.head-1)&posMask
}

// dropOverwritten removes the index entry of the slot in ring position w
// if it points at that position: the record about to overwrite it makes
// the entry stale for good. Dropping it at once keeps every entry live,
// so stale entries never hold index capacity.
func (s *SHIFT) dropOverwritten(w uint64) {
	n := uint64(len(s.ring))
	if s.head < n {
		return
	}
	old := s.ring[w]
	if s.index[old] == indexed|uint32(s.head-n)&posMask {
		s.index[old] = 0
		s.live--
	}
}

// inWindow reports whether a history position has been recorded and not
// yet overwritten.
func (s *SHIFT) inWindow(pos uint64) bool {
	return pos < s.head && s.head-pos <= uint64(len(s.ring))
}

// Find returns the most recent history position of slot, if it is
// indexed. Every index entry is live.
func (s *SHIFT) Find(slot uint32) (uint64, bool) {
	e := s.index[slot]
	if e == 0 {
		return 0, false
	}
	return s.head - uint64((uint32(s.head)-e)&posMask), true
}

// At returns the slot at an absolute history position.
func (s *SHIFT) At(pos uint64) (uint32, bool) {
	if !s.inWindow(pos) {
		return 0, false
	}
	return s.ring[pos%uint64(len(s.ring))], true
}

// Head returns the number of records so far (the next write position).
func (s *SHIFT) Head() uint64 { return s.head }

// StorageBits returns the modeled metadata cost: 42-bit block addresses
// in the history plus (42-bit tag + pointer) index entries — the hundreds
// of kilobytes per the temporal-streaming literature.
func (s *SHIFT) StorageBits() int {
	const blockAddrBits = isa.VABits - 6 // 42-bit block address
	ptrBits := 1
	for 1<<ptrBits < len(s.ring) {
		ptrBits++
	}
	return len(s.ring)*blockAddrBits + s.indexCap*(blockAddrBits+ptrBits)
}
