package btb

import (
	"fmt"

	"shotgun/internal/footprint"
	"shotgun/internal/isa"
)

// UEntry is an unconditional-branch BTB entry (Section 4.2.1): the branch
// kind (call-like or plain jump), its target, and the two spatial
// footprints — the target region's (Call Footprint) and, for calls, the
// fall-through region's (Return Footprint), read on RIB hits via the RAS.
// Storage: 38-bit tag + 46-bit target + 5-bit size + 1-bit type + two
// footprints (2 x 8 bits by default) = 106 bits.
type UEntry struct {
	NumInstr int
	// IsCall distinguishes call-like branches (call/trap, which push the
	// RAS and own a Return Footprint) from plain jumps.
	IsCall bool
	Target isa.Addr
	// CallFoot is the spatial footprint of the target region.
	CallFoot footprint.Vector
	// RetFoot is the spatial footprint of the return region (call-like
	// branches only).
	RetFoot footprint.Vector
}

// CEntry is a conditional-branch BTB entry: size and target offset only
// (type is implicit, direction comes from the TAGE predictor).
// Storage: 41-bit tag + 22-bit target offset + 5-bit size + 2-bit
// direction = 70 bits.
type CEntry struct {
	NumInstr int
	Target   isa.Addr
}

// REntry is a Return Instruction Buffer entry: returns read their target
// from the RAS and their footprint from the calling U-BTB entry, so only
// identity, size and the return flavor are stored.
// Storage: 39-bit tag + 5-bit size + 1-bit type = 45 bits.
type REntry struct {
	NumInstr  int
	IsTrapRet bool
}

// Sizes groups the three structure capacities.
type Sizes struct {
	UEntries int
	CEntries int
	REntries int
}

// Validate reports whether NewShotgun can build these capacities: each
// table's entry count must factor into ways x power-of-two sets.
// REntries may be zero (the no-RIB ablation). External sources of
// explicit sizes (sim.Config.Validate) check here instead of panicking
// mid-simulation.
func (s Sizes) Validate() error {
	if _, _, err := geometry(s.UEntries); err != nil {
		return fmt.Errorf("U-BTB: %w", err)
	}
	if _, _, err := geometry(s.CEntries); err != nil {
		return fmt.Errorf("C-BTB: %w", err)
	}
	if s.REntries != 0 {
		if _, _, err := geometry(s.REntries); err != nil {
			return fmt.Errorf("RIB: %w", err)
		}
	}
	return nil
}

// Shotgun is the paper's split BTB organization.
type Shotgun struct {
	U *table[UEntry]
	C *table[CEntry]
	R *table[REntry]

	layout footprint.Layout
}

// NewShotgun builds the three BTBs with the given capacities and
// footprint layout.
func NewShotgun(sz Sizes, layout footprint.Layout) (*Shotgun, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	u, err := newTable[UEntry]("u-btb", sz.UEntries)
	if err != nil {
		return nil, fmt.Errorf("U-BTB: %w", err)
	}
	c, err := newTable[CEntry]("c-btb", sz.CEntries)
	if err != nil {
		return nil, fmt.Errorf("C-BTB: %w", err)
	}
	// REntries == 0 selects the no-RIB ablation: returns are stored as
	// full U-BTB entries, wasting their Target and footprint fields
	// (the inefficiency Section 4.2.1 motivates the RIB with).
	var r *table[REntry]
	if sz.REntries > 0 {
		r, err = newTable[REntry]("rib", sz.REntries)
		if err != nil {
			return nil, fmt.Errorf("RIB: %w", err)
		}
	}
	return &Shotgun{U: u, C: c, R: r, layout: layout}, nil
}

// MustNewShotgun is NewShotgun for static configurations.
func MustNewShotgun(sz Sizes, layout footprint.Layout) *Shotgun {
	s, err := NewShotgun(sz, layout)
	if err != nil {
		panic(err)
	}
	return s
}

// Layout returns the footprint geometry.
func (s *Shotgun) Layout() footprint.Layout { return s.layout }

// HitKind says which structure satisfied a lookup.
type HitKind uint8

const (
	// HitNone: all three BTBs missed.
	HitNone HitKind = iota
	// HitU: the unconditional-branch BTB hit.
	HitU
	// HitC: the conditional-branch BTB hit.
	HitC
	// HitR: the return instruction buffer hit.
	HitR
)

func (k HitKind) String() string {
	switch k {
	case HitNone:
		return "miss"
	case HitU:
		return "U-BTB"
	case HitC:
		return "C-BTB"
	case HitR:
		return "RIB"
	}
	return fmt.Sprintf("HitKind(%d)", uint8(k))
}

// Hit is the unified result of querying the three BTBs in parallel.
type Hit struct {
	Kind HitKind
	U    UEntry
	C    CEntry
	R    REntry
}

// Lookup queries U-BTB, C-BTB and RIB in parallel (Section 4.2.3) for the
// basic block starting at pc.
func (s *Shotgun) Lookup(pc isa.Addr) Hit {
	// All three are probed in hardware; probing all three here keeps the
	// per-structure hit/miss statistics faithful.
	u, uok := s.U.Lookup(pc)
	c, cok := s.C.Lookup(pc)
	var r REntry
	rok := false
	if s.R != nil {
		r, rok = s.R.Lookup(pc)
	}
	switch {
	case uok:
		return Hit{Kind: HitU, U: u}
	case cok:
		return Hit{Kind: HitC, C: c}
	case rok:
		return Hit{Kind: HitR, R: r}
	}
	return Hit{Kind: HitNone}
}

// Insert routes a branch into the structure its kind belongs to
// (Section 4.2.3: "stores it into one of the BTBs depending on branch
// type"). Existing footprints are preserved on U-BTB re-insertion.
func (s *Shotgun) Insert(pc isa.Addr, e Entry) {
	switch {
	case e.Kind == isa.BranchCond:
		s.C.Update(pc, CEntry{NumInstr: int(e.NumInstr), Target: e.Target})
	case e.Kind.IsReturn():
		if s.R == nil {
			// No-RIB ablation: a return burns a whole U-BTB entry.
			s.U.Update(pc, UEntry{NumInstr: int(e.NumInstr)})
			return
		}
		s.R.Update(pc, REntry{NumInstr: int(e.NumInstr), IsTrapRet: e.Kind == isa.BranchTrapRet})
	case e.Kind.IsUnconditional():
		ne := UEntry{NumInstr: int(e.NumInstr), IsCall: e.Kind.IsCallLike(), Target: e.Target}
		if old, ok := s.U.Peek(pc); ok {
			ne.CallFoot, ne.RetFoot = old.CallFoot, old.RetFoot
		}
		s.U.Update(pc, ne)
	}
	// BranchNone blocks are not branches and are never stored.
}

// CommitFootprint applies a recorded region footprint to its owning U-BTB
// entry (Section 4.2.2). Commits whose owner is no longer resident are
// dropped, mirroring hardware. It reports whether the owner was found.
func (s *Shotgun) CommitFootprint(c footprint.Commit) bool {
	return s.U.Mutate(c.Owner, func(e *UEntry) {
		if c.IsReturnRegion {
			e.RetFoot = c.Vector
		} else {
			e.CallFoot = c.Vector
		}
	})
}

// ReadReturnFootprint fetches the Return Footprint stored with the call
// whose basic block is callBlock (indexed via the extended RAS on RIB
// hits). The second result reports whether the call entry was resident.
func (s *Shotgun) ReadReturnFootprint(callBlock isa.Addr) (footprint.Vector, bool) {
	e, ok := s.U.Peek(callBlock)
	if !ok || !e.IsCall {
		return 0, false
	}
	return e.RetFoot, true
}

// StorageBits returns the modeled cost of all three structures using the
// Section 5.2 entry layouts, adjusted for the configured footprint width.
func (s *Shotgun) StorageBits() int {
	uBits := UEntryBaseBits + 2*s.layout.Bits()
	total := s.U.Entries()*uBits + s.C.Entries()*CEntryBits
	if s.R != nil {
		total += s.R.Entries() * REntryBits
	}
	return total
}

// ResetStats clears all lookup counters.
func (s *Shotgun) ResetStats() {
	s.U.ResetStats()
	s.C.ResetStats()
	if s.R != nil {
		s.R.ResetStats()
	}
}
