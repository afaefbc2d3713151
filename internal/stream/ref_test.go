package stream

import "shotgun/internal/isa"

// refSHIFT is the map-based SHIFT that the slot-numbered one replaced,
// kept as the reference for TestMatchesMapReference: a ring of block
// addresses and a map from block address to its most recent position.
type refSHIFT struct {
	ring      []isa.Addr
	head      uint64
	index     map[isa.Addr]uint64
	indexCap  int
	recent    [compactWindow]isa.Addr
	recentPos int
}

func newRefSHIFT(historyEntries, indexEntries int) *refSHIFT {
	return &refSHIFT{
		ring:     make([]isa.Addr, historyEntries),
		index:    make(map[isa.Addr]uint64),
		indexCap: indexEntries,
	}
}

func (s *refSHIFT) Record(block isa.Addr) {
	block = block.Block()
	for _, r := range s.recent {
		if r == block && s.head > 0 {
			return
		}
	}
	s.recent[s.recentPos] = block
	s.recentPos = (s.recentPos + 1) % compactWindow

	slot := s.head % uint64(len(s.ring))
	if n := uint64(len(s.ring)); s.head >= n {
		old := s.ring[slot]
		if pos, ok := s.index[old]; ok && pos == s.head-n {
			delete(s.index, old)
		}
	}
	s.ring[slot] = block
	s.head++
	if len(s.index) >= s.indexCap {
		if _, ok := s.index[block]; !ok {
			return
		}
	}
	s.index[block] = s.head - 1
}

func (s *refSHIFT) live(pos uint64) bool {
	return pos < s.head && s.head-pos <= uint64(len(s.ring))
}

func (s *refSHIFT) Find(block isa.Addr) (uint64, bool) {
	pos, ok := s.index[block.Block()]
	if !ok || !s.live(pos) {
		return 0, false
	}
	return pos, true
}

func (s *refSHIFT) At(pos uint64) (isa.Addr, bool) {
	if !s.live(pos) {
		return 0, false
	}
	return s.ring[pos%uint64(len(s.ring))], true
}
