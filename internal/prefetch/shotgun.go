package prefetch

import (
	"fmt"
	"slices"
	"strings"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/isa"
	"shotgun/internal/uncore"
)

// RegionMode selects how Shotgun prefetches a target region (the
// Figure 8/9/10/11 ablation).
type RegionMode int

const (
	// RegionVector prefetches exactly the blocks marked in the recorded
	// spatial footprint (the paper's design; 8- or 32-bit per Layout).
	RegionVector RegionMode = iota
	// RegionNone disables region prefetching ("No bit vector"); the
	// freed footprint storage buys a larger U-BTB.
	RegionNone
	// RegionEntire prefetches every block between the region's recorded
	// entry and exit points ("Entire Region").
	RegionEntire
	// RegionFiveBlocks always prefetches five consecutive blocks from
	// the target ("5-Blocks") and stores no footprint metadata.
	RegionFiveBlocks
)

// regionModeNames spells each mode in specs and on shotgun-sim's
// -region flag, indexed by mode.
var regionModeNames = [...]string{
	RegionVector:     "vector",
	RegionNone:       "none",
	RegionEntire:     "entire",
	RegionFiveBlocks: "5blocks",
}

// RegionModeNames lists the spellings ParseRegionMode accepts, in mode
// order.
func RegionModeNames() []string { return slices.Clone(regionModeNames[:]) }

// ParseRegionMode maps a region mode's spelling to the enum.
func ParseRegionMode(name string) (RegionMode, error) {
	if i := slices.Index(regionModeNames[:], name); i >= 0 {
		return RegionMode(i), nil
	}
	return 0, fmt.Errorf("unknown region mode %q (%s)", name, strings.Join(regionModeNames[:], ", "))
}

// Validate reports whether m is one of the region modes.
func (m RegionMode) Validate() error {
	if m < 0 || int(m) >= len(regionModeNames) {
		return fmt.Errorf("prefetch: unknown region mode %d", int(m))
	}
	return nil
}

func (m RegionMode) String() string {
	switch m {
	case RegionVector:
		return "bit-vector"
	case RegionNone:
		return "no-bit-vector"
	case RegionEntire:
		return "entire-region"
	case RegionFiveBlocks:
		return "5-blocks"
	}
	return fmt.Sprintf("RegionMode(%d)", int(m))
}

// ShotgunConfig parameterizes the engine.
type ShotgunConfig struct {
	// Sizes gives the three structure capacities (btb.ShotgunSizesForBudget
	// derives them from a conventional-BTB-equivalent budget).
	Sizes btb.Sizes
	// Layout is the footprint geometry (footprint.Layout8 by default).
	Layout footprint.Layout
	// Mode is the region-prefetch variant.
	Mode RegionMode
}

// Shotgun is the paper's mechanism: a U-BTB holding the unconditional
// branch working set with spatial footprints of target and return
// regions, a small predecode-filled C-BTB for local control flow, a
// tag-only RIB for returns, bulk region prefetching from footprints, and
// Boomerang's reactive fill as the fallback on full misses.
type Shotgun struct {
	hooks
	ctx  Context
	org  *btb.Shotgun
	pbuf *btb.PrefetchBuffer
	rec  *footprint.Recorder
	mode RegionMode

	misses uint64
	// Resolutions / ResolveStallCycles track the reactive-fill fallback.
	Resolutions        uint64
	ResolveStallCycles uint64
	// RegionPrefetches counts footprint-driven probe issues;
	// FootprintDropped counts commits whose owner was already evicted.
	RegionPrefetches uint64
	FootprintDropped uint64

	// blkScratch is the reusable region-expansion buffer; regionPrefetch
	// runs once per unconditional branch and never nests.
	blkScratch []isa.Addr
}

// NewShotgun builds the engine.
func NewShotgun(ctx Context, cfg ShotgunConfig) *Shotgun {
	if cfg.Layout.Bits() == 0 {
		cfg.Layout = footprint.Layout8
	}
	e := &Shotgun{
		ctx:  ctx,
		org:  btb.MustNewShotgun(cfg.Sizes, cfg.Layout),
		pbuf: btb.NewPrefetchBuffer(32),
		mode: cfg.Mode,
	}
	switch cfg.Mode {
	case RegionVector:
		e.rec = footprint.NewRecorder(cfg.Layout)
	case RegionEntire:
		e.rec = footprint.NewContiguousRecorder(cfg.Layout)
	}
	return e
}

// Evaluate implements Engine.
func (e *Shotgun) Evaluate(now uint64, bb isa.BasicBlock, rasCallBlock isa.Addr, rasOK bool) Eval {
	prefetchBlocks(e.ctx, now, bb)

	if bb.Kind == isa.BranchNone {
		return Eval{BTBHit: true}
	}

	hit := e.org.Lookup(bb.PC)
	switch hit.Kind {
	case btb.HitU:
		// U-BTB hit: read the spatial footprint of the target region and
		// issue bulk prefetch probes (Figure 5b, steps 1-2).
		e.regionPrefetch(now, hit.U.Target, hit.U.CallFoot)
		return Eval{BTBHit: true}
	case btb.HitR:
		// RIB hit: the return footprint lives with the call; the RAS
		// (extended with the call's block address) locates it.
		if rasOK {
			if v, ok := e.org.ReadReturnFootprint(rasCallBlock); ok {
				e.regionPrefetch(now, bb.Target, v)
			}
		}
		return Eval{BTBHit: true}
	case btb.HitC:
		return Eval{BTBHit: true}
	}

	// Full miss: try the BTB prefetch buffer, then fall back to
	// Boomerang's reactive fill.
	if entry, ok := e.pbuf.Take(bb.PC); ok {
		e.org.Insert(bb.PC, entry)
		if entry.Kind.IsUnconditional() && !entry.Kind.IsReturn() {
			e.regionPrefetch(now, entry.Target, 0)
		}
		return Eval{BTBHit: true}
	}

	e.misses++
	e.Resolutions++
	ready := e.ctx.Hier.BlockResidency(now, bb.BranchPC().Block())
	reactiveFill(e.ctx.Dec, e.org, e.pbuf, bb)
	if ready > now {
		e.ResolveStallCycles += ready - now
	}
	return Eval{BTBHit: true, StallUntil: ready}
}

// regionPrefetch issues probes for the target block and its region
// footprint according to the configured mode. Every probed block also
// feeds the predecoder: Section 4.2.3's C-BTB prefill anticipates the
// upcoming region's local branch working set whether the blocks arrive
// from the LLC (predecoded on arrival) or are already L1-I resident
// (predecoded from the L1-I, like the reactive path does).
func (e *Shotgun) regionPrefetch(now uint64, target isa.Addr, vec footprint.Vector) {
	if target == 0 {
		return
	}
	e.probeRegionBlock(now, target)
	switch e.mode {
	case RegionVector, RegionEntire:
		e.blkScratch = e.org.Layout().AppendBlocks(e.blkScratch[:0], vec, target)
		for _, blk := range e.blkScratch {
			e.probeRegionBlock(now, blk)
			e.RegionPrefetches++
		}
	case RegionFiveBlocks:
		base := target.Block()
		for i := 1; i < 5; i++ {
			e.probeRegionBlock(now, base+isa.Addr(i*isa.BlockBytes))
			e.RegionPrefetches++
		}
	case RegionNone:
		// Target block only (it is the next fetch address anyway).
	}
}

// probeRegionBlock prefetches one region block and, when it is already
// resident, predecodes it immediately (non-resident blocks are
// predecoded by OnArrival when the fill completes).
func (e *Shotgun) probeRegionBlock(now uint64, addr isa.Addr) {
	if _, issued := e.ctx.Hier.PrefetchBlock(now, addr); !issued {
		e.predecodeBlock(addr)
	}
}

// predecodeBlock routes one cache block's branches into the structures
// the paper's predecoder fills: conditionals into the C-BTB, returns
// into the RIB, other unconditionals into the BTB prefetch buffer (so
// cold entries cannot evict footprint-bearing U-BTB entries).
func (e *Shotgun) predecodeBlock(addr isa.Addr) {
	for _, br := range e.ctx.Dec.Decode(addr) {
		if pc := br.BlockPC(addr); br.Kind == isa.BranchCond || br.Kind.IsReturn() {
			e.org.Insert(pc, br.Entry())
		} else {
			e.pbuf.Insert(pc, br.Entry())
		}
	}
}

// Warm implements Engine: U-BTB/C-BTB/RIB training (lookups move the
// replacement state, misses fill from the predecoder) without region
// probes or reactive-fill stalls. Footprint recording continues through
// OnRetire on the warm path, so committed footprints stay fresh.
func (e *Shotgun) Warm(bb isa.BasicBlock) {
	if bb.Kind == isa.BranchNone {
		return
	}
	if hit := e.org.Lookup(bb.PC); hit.Kind != btb.HitNone {
		return
	}
	if entry, ok := e.pbuf.Take(bb.PC); ok {
		e.org.Insert(bb.PC, entry)
		return
	}
	reactiveFill(e.ctx.Dec, e.org, e.pbuf, bb)
}

// OnArrival implements Engine: prefetched (and demand-filled) blocks are
// predecoded; conditional branches fill the C-BTB ahead of the access
// stream (Figure 5b, steps 4-5), returns fill the RIB, and unconditional
// branches wait in the BTB prefetch buffer so they cannot evict
// footprint-bearing U-BTB entries untouched.
func (e *Shotgun) OnArrival(now uint64, arrivals []uncore.Arrival) {
	for _, a := range arrivals {
		e.predecodeBlock(a.Block)
	}
}

// OnRetire implements Engine: the retire stream drives spatial footprint
// recording (Section 4.2.2).
func (e *Shotgun) OnRetire(bb isa.BasicBlock) {
	if e.rec == nil {
		return
	}
	if c := e.rec.Observe(bb); c != nil {
		if !e.org.CommitFootprint(*c) {
			e.FootprintDropped++
		}
	}
}

// BTBMisses implements Engine.
func (e *Shotgun) BTBMisses() uint64 { return e.misses }

// ResetStats implements Engine.
func (e *Shotgun) ResetStats() {
	e.misses = 0
	e.Resolutions = 0
	e.ResolveStallCycles = 0
	e.RegionPrefetches = 0
	e.FootprintDropped = 0
	e.org.ResetStats()
}

// OnMispredict implements Engine: Shotgun's runahead, like Boomerang's,
// chases the predicted path until the execute-time flush.
func (e *Shotgun) OnMispredict(now uint64, wrongPath isa.Addr) {
	chaseWrongPath(e.ctx, now, wrongPath)
}
