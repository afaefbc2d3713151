package uncore

import "shotgun/internal/isa"

// flightReserve is how many in-flight fills a hierarchy makes room for
// up front: the flight pool, the arrival heap, the arrival buffer and
// half the block index. It is above every per-core peak the workloads
// reach, so a fill allocates nothing until a core has more fills
// outstanding than ever before.
const flightReserve = 128

// flightTable indexes the in-flight fills by block: open addressing with
// linear probing and backward-shift deletion, so it keeps no tombstones
// and its layout follows from the fill sequence alone. It doubles when
// more than half full, so it allocates only at a new peak of fills in
// flight. A Go map, whose hash seed differs per map, could regrow under
// the same fill sequence on some seeds and not on others.
type flightTable struct {
	slots []flightSlot // empty where fl is nil
	n     int
	shift uint // 64 - log2(len(slots))
}

type flightSlot struct {
	block isa.Addr
	fl    *flight
}

// newFlightTable returns a table with room for flightReserve fills.
func newFlightTable() flightTable {
	const size = 2 * flightReserve // a power of two
	shift := uint(64)
	for n := size; n > 1; n >>= 1 {
		shift--
	}
	return flightTable{slots: make([]flightSlot, size), shift: shift}
}

// home is block's first probe slot (Fibonacci hashing of the block
// number).
func (t *flightTable) home(block isa.Addr) int {
	return int(block.BlockIndex() * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the fill in flight for block, if any.
func (t *flightTable) get(block isa.Addr) (*flight, bool) {
	mask := len(t.slots) - 1
	for i := t.home(block); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.fl == nil {
			return nil, false
		}
		if s.block == block {
			return s.fl, true
		}
	}
}

// put indexes fl, whose block must not be in flight already.
func (t *flightTable) put(fl *flight) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.insert(flightSlot{fl.block, fl})
	t.n++
}

func (t *flightTable) insert(s flightSlot) {
	mask := len(t.slots) - 1
	i := t.home(s.block)
	for t.slots[i].fl != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *flightTable) grow() {
	old := t.slots
	t.slots = make([]flightSlot, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.fl != nil {
			t.insert(s)
		}
	}
}

// remove drops block, which must be in flight. Each later entry of the
// probe run that may move back into the hole does, so every entry stays
// reachable from its home slot without a tombstone.
func (t *flightTable) remove(block isa.Addr) {
	mask := len(t.slots) - 1
	i := t.home(block)
	for t.slots[i].fl == nil || t.slots[i].block != block {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].fl != nil; j = (j + 1) & mask {
		// The entry at j stays unless its home k lies cyclically
		// outside (i, j], where moving it to i keeps it reachable.
		k := t.home(t.slots[j].block)
		if (i < j && (k <= i || k > j)) || (i > j && k <= i && k > j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = flightSlot{}
	t.n--
}
