package prefetch

import (
	"shotgun/internal/bpu"
	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/uncore"
)

// RDIP is return-address-stack-directed instruction prefetching (Kolli,
// Saidi & Wenisch, MICRO'13), the closest prior work the paper discusses
// in Section 4.3: program context — a hash of the RAS contents — indexes
// a table of miss signatures; on every call or return the next context's
// recorded misses are prefetched.
//
// The paper's critique, which this implementation reproduces: RDIP
// predicts the future only from call/return context, ignoring local
// control flow (limited accuracy); it prefetches only the L1-I (the BTB
// still thrashes, so decode redirects persist — a conventional BTB is
// used here exactly as in the paper's comparison); and it needs 64KB of
// dedicated metadata per core.
type RDIP struct {
	ctx Context
	btb *btb.Conventional

	// sigTable maps a program-context signature to the blocks that
	// missed under that context last time; sigOrder is a ring of the
	// signatures in insertion order, oldest at sigHead once the table is
	// full, so the bounded table evicts FIFO — deterministically, unlike
	// ranging over the map, whose order Go randomizes per run.
	sigTable map[uint64]rdipSig
	sigOrder [rdipTableEntries]uint64
	sigHead  int

	ras    *bpu.RAS
	curSig uint64
	// pending collects misses seen under the current context.
	pending rdipSig

	misses uint64
	// Lookups / Hits track signature-table effectiveness.
	Lookups uint64
	Hits    uint64
}

// rdipTableEntries bounds the signature table: the paper charges RDIP
// 64KB of metadata; at ~16 bytes per recorded block and up to 8 blocks
// per signature, 512 signatures model that budget.
const rdipTableEntries = 512

// rdipMaxBlocksPerSig bounds a signature's recorded miss set.
const rdipMaxBlocksPerSig = 8

// rdipSig is one signature's miss set, held by value so that recording
// it allocates nothing.
type rdipSig struct {
	n      int
	blocks [rdipMaxBlocksPerSig]isa.Addr
}

// NewRDIP builds the engine with a conventional BTB of the given size.
func NewRDIP(ctx Context, btbEntries int) *RDIP {
	return &RDIP{
		ctx:      ctx,
		btb:      btb.MustNewConventional(btbEntries),
		sigTable: make(map[uint64]rdipSig, rdipTableEntries),
		ras:      bpu.NewRAS(32),
	}
}

// Name implements Engine.
func (e *RDIP) Name() string { return "rdip" }

// signature hashes the top few RAS frames into a program context.
func (e *RDIP) signature() uint64 {
	var sig uint64 = 0x9e3779b97f4a7c15
	// Hash the youngest four frames, like RDIP's context register. Peek
	// emulation: pop into a fixed scratch array and push back in reverse
	// (a defer per frame would heap-allocate on every call/return).
	var frames [4]bpu.RASEntry
	depth := e.ras.Depth()
	n := 0
	for ; n < 4 && n < depth; n++ {
		f, _ := e.ras.Pop()
		frames[n] = f
		sig ^= uint64(f.ReturnAddr)
		sig *= 0x100000001b3
	}
	for i := n - 1; i >= 0; i-- {
		e.ras.Push(frames[i])
	}
	return sig
}

// contextSwitch closes the current context and prefetches the new
// context's recorded miss set.
func (e *RDIP) contextSwitch(now uint64) {
	e.closeContext()
	e.Lookups++
	if sig, ok := e.sigTable[e.curSig]; ok {
		e.Hits++
		for _, b := range sig.blocks[:sig.n] {
			e.ctx.Hier.PrefetchBlock(now, b)
		}
	}
}

// closeContext records the misses seen under the current context, if
// any, against its signature, and moves to the new context's signature.
func (e *RDIP) closeContext() {
	if e.pending.n > 0 {
		// Bounded table with FIFO replacement: a new signature at
		// capacity evicts the oldest; refreshing an already-recorded
		// signature updates it in place without evicting. (The original
		// implementation evicted a random map-iteration victim on every
		// full-table close, making RDIP results nondeterministic per
		// run; this is the deterministic standard-cache policy.)
		if _, exists := e.sigTable[e.curSig]; !exists {
			if n := len(e.sigTable); n < rdipTableEntries {
				e.sigOrder[n] = e.curSig
			} else {
				delete(e.sigTable, e.sigOrder[e.sigHead])
				e.sigOrder[e.sigHead] = e.curSig
				e.sigHead = (e.sigHead + 1) % rdipTableEntries
			}
		}
		e.sigTable[e.curSig] = e.pending
		e.pending.n = 0
	}
	e.curSig = e.signature()
}

// Evaluate implements Engine: conventional BTB handling (misses redirect
// at decode, like the baseline) plus context tracking on calls/returns.
func (e *RDIP) Evaluate(now uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	switch {
	case bb.Kind.IsCallLike():
		e.ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
		e.contextSwitch(now)
	case bb.Kind.IsReturn():
		e.ras.Pop()
		e.contextSwitch(now)
	}

	if bb.Kind == isa.BranchNone {
		return Eval{BTBHit: true}
	}
	if _, ok := e.btb.Lookup(bb.PC); ok {
		return Eval{BTBHit: true}
	}
	e.misses++
	e.btb.Insert(bb.PC, btb.EntryFromBlock(bb))
	return Eval{DecodeRedirect: bb.Taken}
}

// Warm implements Engine: RAS/context tracking and BTB training without
// the context-triggered prefetch burst. Keeping curSig live means the
// first OnDemandMiss of the next detailed unit trains the same
// signature an exact run would have.
func (e *RDIP) Warm(bb isa.BasicBlock) {
	switch {
	case bb.Kind.IsCallLike():
		e.ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
		e.closeContext()
	case bb.Kind.IsReturn():
		e.ras.Pop()
		e.closeContext()
	}
	if bb.Kind == isa.BranchNone {
		return
	}
	if _, ok := e.btb.Lookup(bb.PC); !ok {
		e.btb.Insert(bb.PC, btb.EntryFromBlock(bb))
	}
}

// OnDemandMiss implements Engine: misses train the current signature.
func (e *RDIP) OnDemandMiss(_ uint64, block isa.Addr) {
	if e.pending.n < rdipMaxBlocksPerSig {
		e.pending.blocks[e.pending.n] = block.Block()
		e.pending.n++
	}
}

// OnArrival implements Engine.
func (e *RDIP) OnArrival(uint64, []uncore.Arrival) {}

// OnRetire implements Engine.
func (e *RDIP) OnRetire(isa.BasicBlock) {}

// OnFetch implements Engine.
func (e *RDIP) OnFetch(uint64, isa.Addr, uncore.Source) {}

// OnMispredict implements Engine: RDIP's prefetching is context-driven,
// not runahead-driven.
func (e *RDIP) OnMispredict(uint64, isa.Addr) {}

// BTBMisses implements Engine.
func (e *RDIP) BTBMisses() uint64 { return e.misses }

// ResetStats implements Engine.
func (e *RDIP) ResetStats() {
	e.misses = 0
	e.Lookups = 0
	e.Hits = 0
	e.btb.ResetStats()
}
