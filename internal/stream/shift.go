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
// Host memory: the ring is allocated whole, at the modeled history size,
// because a lazily grown ring would allocate on the hot path for as long
// as the history fills. The index map is presized to hold the smaller of
// the modeled index size and the number of distinct code blocks the
// caller can record (New's codeBlocks), so an index that never fills
// costs only what the program's code can occupy and is never regrown.
// An entry is dropped as soon as the ring overwrites its slot, so the
// index holds only live entries.
package stream

import "shotgun/internal/isa"

// SHIFT is the shared history + index table.
type SHIFT struct {
	ring []isa.Addr
	head uint64 // total records; next write position is head % len(ring)

	index    map[isa.Addr]uint64
	indexCap int

	// recent is a small recency window implementing spatio-temporal
	// compaction: re-touches of a just-recorded block (loops, straddling
	// basic blocks) are not re-recorded, so the history span covers the
	// footprint rather than the raw access count.
	recent    [compactWindow]isa.Addr
	recentPos int

	Records uint64
	Probes  uint64
	Found   uint64
}

// compactWindow is the compaction recency depth.
const compactWindow = 8

// New builds a SHIFT history of historyEntries blocks with an index table
// bounded at indexEntries (the paper models 32K history + 8K index).
// codeBlocks bounds the distinct blocks the caller will record (the cache
// blocks of the program's code): the index map is presized to hold
// min(indexEntries, codeBlocks) keys, so recording never regrows it.
func New(historyEntries, indexEntries, codeBlocks int) *SHIFT {
	if historyEntries <= 0 || indexEntries <= 0 || codeBlocks < 0 {
		panic("stream: invalid SHIFT geometry")
	}
	hint := min(indexEntries, codeBlocks)
	return &SHIFT{
		ring: make([]isa.Addr, historyEntries),
		// A large Go map is a set of fixed-size tables, each taking the
		// keys its hash bits pick; one that overflows is split. Sized
		// exactly, some table's share of the keys overflows for most
		// hash seeds (Oracle's 55,336 code blocks split tables on every
		// seed tried), so the map is given a quarter more room.
		index:    make(map[isa.Addr]uint64, hint+hint/4),
		indexCap: indexEntries,
	}
}

// Record appends a block access to the history (recently recorded blocks
// are compacted away, as SHIFT's spatio-temporal compaction would) and
// points the index at it.
func (s *SHIFT) Record(block isa.Addr) {
	block = block.Block()
	for _, r := range s.recent {
		if r == block && s.head > 0 {
			return
		}
	}
	s.recent[s.recentPos] = block
	s.recentPos = (s.recentPos + 1) % compactWindow

	slot := s.head % uint64(len(s.ring))
	s.dropOverwritten(slot)
	s.ring[slot] = block
	s.head++
	s.Records++
	if len(s.index) >= s.indexCap {
		if _, ok := s.index[block]; !ok {
			// Every entry is live: the block stays unindexed. Hardware
			// would overwrite a set way; this rule depends only on the
			// record sequence, never on map iteration order.
			return
		}
	}
	s.index[block] = s.head - 1
}

// dropOverwritten removes the index entry of the block in ring slot slot
// if it points at that slot: the record about to overwrite the slot makes
// the entry stale for good. Dropping it at once keeps every entry live,
// so stale entries never hold index capacity.
func (s *SHIFT) dropOverwritten(slot uint64) {
	n := uint64(len(s.ring))
	if s.head < n {
		return
	}
	old := s.ring[slot]
	if pos, ok := s.index[old]; ok && pos == s.head-n {
		delete(s.index, old)
	}
}

// live reports whether a history position has not been overwritten.
func (s *SHIFT) live(pos uint64) bool {
	return pos < s.head && s.head-pos <= uint64(len(s.ring))
}

// Find returns the most recent history position of block, if it is still
// within the live window.
func (s *SHIFT) Find(block isa.Addr) (uint64, bool) {
	s.Probes++
	pos, ok := s.index[block.Block()]
	if !ok || !s.live(pos) {
		return 0, false
	}
	s.Found++
	return pos, true
}

// At returns the block at an absolute history position.
func (s *SHIFT) At(pos uint64) (isa.Addr, bool) {
	if !s.live(pos) {
		return 0, false
	}
	return s.ring[pos%uint64(len(s.ring))], true
}

// Successors returns up to n blocks recorded after pos (exclusive).
func (s *SHIFT) Successors(pos uint64, n int) []isa.Addr {
	var out []isa.Addr
	for i := uint64(1); i <= uint64(n); i++ {
		b, ok := s.At(pos + i)
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out
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
