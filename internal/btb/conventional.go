package btb

import "shotgun/internal/isa"

// Entry is a basic-block-oriented BTB entry (Yeh & Patt style, as used by
// Boomerang): it describes the basic block starting at the lookup PC —
// its size, the kind of branch that terminates it, and that branch's
// target. Storage cost per Section 5.2: 37-bit tag + 46-bit target +
// 5-bit size + 3-bit type + 2-bit direction = 93 bits.
//
// The host layout packs an entry into 16 bytes (Target first, then the
// two one-byte fields): every conventional BTB holds a value array of
// these, Confluence's at 16K entries.
type Entry struct {
	// Target is the taken target (unused for returns, which read the RAS).
	Target isa.Addr
	// NumInstr is the basic block length in instructions, at most
	// isa.MaxBlockInstrs (the 5-bit size field).
	NumInstr uint8
	// Kind is the terminating branch kind.
	Kind isa.BranchKind
}

// EntryFromBlock derives the BTB payload from a retired basic block.
func EntryFromBlock(bb isa.BasicBlock) Entry {
	return Entry{Target: bb.Target, NumInstr: uint8(bb.NumInstr), Kind: bb.Kind}
}

// Conventional is the single-structure basic-block BTB used by the
// no-prefetch baseline, FDIP, Boomerang, and (at 16K entries) Confluence.
type Conventional struct {
	tab *table[Entry]
}

// NewConventional builds a BTB with the given entry count (e.g. 2048).
func NewConventional(entries int) (*Conventional, error) {
	t, err := newTable[Entry]("btb", entries)
	if err != nil {
		return nil, err
	}
	return &Conventional{tab: t}, nil
}

// MustNewConventional is NewConventional for static sizes.
func MustNewConventional(entries int) *Conventional {
	b, err := NewConventional(entries)
	if err != nil {
		panic(err)
	}
	return b
}

// Lookup predicts the basic block starting at pc.
func (b *Conventional) Lookup(pc isa.Addr) (Entry, bool) { return b.tab.Lookup(pc) }

// Peek looks up without LRU/counter side effects.
func (b *Conventional) Peek(pc isa.Addr) (Entry, bool) { return b.tab.Peek(pc) }

// Insert fills the entry for the block starting at pc.
func (b *Conventional) Insert(pc isa.Addr, e Entry) { b.tab.Update(pc, e) }

// Entries returns capacity; Occupancy the number of valid entries.
func (b *Conventional) Entries() int   { return b.tab.Entries() }
func (b *Conventional) Occupancy() int { return b.tab.Occupancy() }

// Stats / ResetStats expose lookup counters.
func (b *Conventional) Stats() Stats { return b.tab.Stats() }
func (b *Conventional) ResetStats()  { b.tab.ResetStats() }

// StorageBits returns the modeled cost: 93 bits per entry (Section 5.2).
func (b *Conventional) StorageBits() int { return b.Entries() * ConventionalEntryBits }
