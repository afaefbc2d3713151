package prefetch

import (
	"shotgun/internal/btb"
	"shotgun/internal/isa"
)

// Boomerang (Kumar et al., HPCA'17) is FDIP extended with reactive BTB
// filling: when the runahead detects a BTB miss it stalls, fetches the
// cache block containing the missing branch from the memory hierarchy,
// predecodes it, installs the missing branch into the BTB and the rest of
// the block's branches into a small BTB prefetch buffer. This avoids the
// decode-time pipeline re-steer, at the price of pausing instruction
// prefetching while each miss resolves — the limitation Shotgun removes.
type Boomerang struct {
	hooks
	decodeBTB
	ctx  Context
	pbuf *btb.PrefetchBuffer

	// Resolutions counts reactive fills; ResolveStallCycles the total
	// runahead cycles spent waiting on them.
	Resolutions        uint64
	ResolveStallCycles uint64
}

// NewBoomerang builds the engine with the given BTB entry count and a
// 32-entry BTB prefetch buffer (Section 5.2).
func NewBoomerang(ctx Context, btbEntries int) *Boomerang {
	return &Boomerang{
		decodeBTB: newDecodeBTB(btbEntries),
		ctx:       ctx,
		pbuf:      btb.NewPrefetchBuffer(32),
	}
}

// Evaluate implements Engine.
func (e *Boomerang) Evaluate(now uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	prefetchBlocks(e.ctx, now, bb)
	if e.covered(bb) {
		return Eval{BTBHit: true}
	}

	// Reactive fill: fetch the block holding the branch, predecode it.
	e.misses++
	e.Resolutions++
	ready := e.ctx.Hier.BlockResidency(now, bb.BranchPC().Block())
	reactiveFill(e.ctx.Dec, e.btb, e.pbuf, bb)
	if ready > now {
		e.ResolveStallCycles += ready - now
	}
	return Eval{BTBHit: true, StallUntil: ready}
}

// Warm implements Engine: the reactive fill's functional effect —
// predecoded branches landing in the BTB and its prefetch buffer —
// without the residency probe or the stall.
func (e *Boomerang) Warm(bb isa.BasicBlock) {
	if !e.covered(bb) {
		reactiveFill(e.ctx.Dec, e.btb, e.pbuf, bb)
	}
}

// covered reports whether bb needs no reactive fill: it has no branch,
// hits the BTB, or hits the BTB prefetch buffer, which promotes the
// entry into the BTB without a stall.
func (e *Boomerang) covered(bb isa.BasicBlock) bool {
	if bb.Kind == isa.BranchNone {
		return true
	}
	if _, ok := e.btb.Lookup(bb.PC); ok {
		return true
	}
	if entry, ok := e.pbuf.Take(bb.PC); ok {
		e.btb.Insert(bb.PC, entry)
		return true
	}
	return false
}

// ResetStats implements Engine.
func (e *Boomerang) ResetStats() {
	e.decodeBTB.ResetStats()
	e.Resolutions = 0
	e.ResolveStallCycles = 0
}

// OnMispredict implements Engine: like FDIP, Boomerang's runahead chases
// the predicted (wrong) path until the flush.
func (e *Boomerang) OnMispredict(now uint64, wrongPath isa.Addr) {
	chaseWrongPath(e.ctx, now, wrongPath)
}
