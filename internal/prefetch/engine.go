// Package prefetch implements the eight control-flow delivery
// mechanisms the evaluation compares, behind one Engine interface
// driven by the core's cycle loop:
//
//   - None: conventional 2K-entry BTB, no prefetching (the baseline).
//   - FDIP: fetch-directed instruction prefetching (Reinman et al.);
//     speculates straight-line through BTB misses.
//   - RDIP: RAS-context miss signatures replay recorded L1-I misses
//     (Kolli et al., MICRO'13); the BTB still thrashes.
//   - Delta: delta-pattern prefetching — a shift register of
//     block-address deltas plus a repeating-cycle matcher projects
//     stable strides, with no BTB-directed lookahead at all.
//   - Boomerang: FDIP + reactive BTB fill; stalls the runahead to
//     resolve each BTB miss (Kumar et al., HPCA'17).
//   - Confluence: temporal-streaming unified prefetcher over SHIFT
//     history with a 16K-entry BTB (Kaynak et al., MICRO'15).
//   - Shotgun: this paper — U-BTB/C-BTB/RIB with spatial footprints.
//   - Ideal: BTB and L1-I never miss (the opportunity bound).
//
// Each behaviour the engines share is written once here: hooks holds
// the no-op observation hooks, decodeBTB the conventional BTB trained
// at decode time (None, FDIP, RDIP, Delta, Boomerang, Confluence), and
// reactiveFill Boomerang's reactive fill, which Shotgun falls back on.
// A new mechanism embeds hooks and overrides only the hooks it observes.
//
// Every engine is additionally held to the mechanism-conformance
// contract (conformance_test.go): Warm never touches timing state,
// replays are deterministic, and the per-block hot path is
// allocation-free.
package prefetch

import (
	"shotgun/internal/btb"
	"shotgun/internal/isa"
	"shotgun/internal/predecode"
	"shotgun/internal/uncore"
)

// Context gives engines access to the shared substrate.
type Context struct {
	Hier *uncore.Hierarchy
	Dec  *predecode.Decoder
}

// Eval is the outcome of the first-encounter BTB evaluation of a basic
// block in the branch-prediction unit's runahead.
type Eval struct {
	// BTBHit reports that some BTB structure described the block, so the
	// front-end can follow the branch without a decode-time redirect.
	BTBHit bool
	// DecodeRedirect reports an undetected taken branch: the front-end
	// fetches past it and is re-steered at decode (bubble).
	DecodeRedirect bool
	// StallUntil, when non-zero, pauses the runahead until the given
	// cycle (Boomerang-style reactive BTB-miss resolution).
	StallUntil uint64
}

// Engine is one control-flow delivery mechanism. The core calls Evaluate
// exactly once per dynamic basic block (in trace order) as the runahead
// first reaches it; the remaining hooks observe fetch and retire events.
type Engine interface {
	// Evaluate performs BTB lookup/fill and issues this mechanism's
	// prefetch probes for the block bb. For return blocks, rasCallBlock
	// is the basic-block address of the matching call popped from the
	// RAS (Shotgun's extension) and rasOK reports whether the RAS had a
	// frame.
	Evaluate(now uint64, bb isa.BasicBlock, rasCallBlock isa.Addr, rasOK bool) Eval

	// OnArrival observes completed instruction-side fills (for
	// predecode-driven proactive BTB filling).
	OnArrival(now uint64, arrivals []uncore.Arrival)

	// OnRetire observes the retire-order basic-block stream (for
	// footprint recording and temporal-history training).
	OnRetire(bb isa.BasicBlock)

	// OnFetch observes each demand-fetched cache block and where it was
	// found (for stream-replay advancement).
	OnFetch(now uint64, block isa.Addr, src uncore.Source)

	// OnDemandMiss observes L1-I demand misses that reached the LLC (the
	// temporal-streaming restart trigger).
	OnDemandMiss(now uint64, block isa.Addr)

	// OnMispredict tells the engine the runahead has gone down a wrong
	// path starting at wrongPath (the not-taken successor of a branch
	// that was actually taken, or vice versa). FDIP-style engines chase
	// it with prefetch probes that pollute the L1-I — the wrong-path
	// cost of decoupled prefetching.
	OnMispredict(now uint64, wrongPath isa.Addr)

	// Warm is Evaluate's functional-warming counterpart: it trains the
	// mechanism's own predictor state for the block bb — BTB fills,
	// RAS-context tracking, prefetch-buffer promotion — without issuing
	// timed prefetch traffic, stalling, or touching timing counters.
	// Sampling's fast-forward path calls it once per dynamic block
	// between detailed units; the detailed warm-up blocks before each
	// measured unit re-establish the timing-dependent state Warm skips
	// (in-flight fills, runahead probes).
	Warm(bb isa.BasicBlock)

	// BTBMisses returns the number of first-encounter BTB misses on real
	// branches (the Table 1 MPKI numerator).
	BTBMisses() uint64

	// ResetStats clears the engine's counters at the warmup boundary.
	ResetStats()
}

// hooks is the default for the observation hooks: every engine embeds
// it and overrides only the events its mechanism reacts to.
type hooks struct{}

func (hooks) OnArrival(uint64, []uncore.Arrival)      {}
func (hooks) OnRetire(isa.BasicBlock)                 {}
func (hooks) OnFetch(uint64, isa.Addr, uncore.Source) {}
func (hooks) OnDemandMiss(uint64, isa.Addr)           {}
func (hooks) OnMispredict(uint64, isa.Addr)           {}

// decodeBTB is the conventional basic-block BTB trained at decode time,
// the BTB side the evaluation gives the baseline, FDIP, RDIP, Delta,
// Boomerang and Confluence alike, plus its first-encounter miss count.
type decodeBTB struct {
	btb    *btb.Conventional
	misses uint64
}

func newDecodeBTB(entries int) decodeBTB {
	return decodeBTB{btb: btb.MustNewConventional(entries)}
}

// lookup evaluates bb's branch: a block with no branch or a BTB hit
// hits; a miss is counted, decode inserts the branch, and a taken miss
// re-steers the front-end at decode.
func (d *decodeBTB) lookup(bb isa.BasicBlock) Eval {
	if bb.Kind == isa.BranchNone {
		return Eval{BTBHit: true}
	}
	if _, ok := d.btb.Lookup(bb.PC); ok {
		return Eval{BTBHit: true}
	}
	d.misses++
	d.btb.Insert(bb.PC, btb.EntryFromBlock(bb))
	return Eval{DecodeRedirect: bb.Taken}
}

// Warm implements Engine: lookup's BTB training without the miss count
// or the redirect.
func (d *decodeBTB) Warm(bb isa.BasicBlock) {
	if bb.Kind == isa.BranchNone {
		return
	}
	if _, ok := d.btb.Lookup(bb.PC); !ok {
		d.btb.Insert(bb.PC, btb.EntryFromBlock(bb))
	}
}

// BTBMisses implements Engine.
func (d *decodeBTB) BTBMisses() uint64 { return d.misses }

// ResetStats implements Engine.
func (d *decodeBTB) ResetStats() {
	d.misses = 0
	d.btb.ResetStats()
}

// reactiveFill is Boomerang's reactive BTB fill (Section 4.2.3):
// predecode the cache block holding bb's branch, install bb's own entry
// into dst and the block's other branches into the prefetch buffer.
// Callers that model timing probe the block's residency first.
func reactiveFill[B interface{ Insert(isa.Addr, btb.Entry) }](dec *predecode.Decoder, dst B, pbuf *btb.PrefetchBuffer, bb isa.BasicBlock) {
	blk := bb.BranchPC().Block()
	for _, br := range dec.Decode(blk) {
		if pc := br.BlockPC(blk); pc == bb.PC {
			dst.Insert(pc, br.Entry())
		} else {
			pbuf.Insert(pc, br.Entry())
		}
	}
}

// prefetchBlocks issues FDIP-style L1-I probes for every cache block a
// basic block spans.
func prefetchBlocks(ctx Context, now uint64, bb isa.BasicBlock) {
	first, last := bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		ctx.Hier.PrefetchBlock(now, blk)
	}
}

// wrongPathDepth is how many sequential blocks an FDIP-style runahead
// chases down a mispredicted path before the execute-time flush.
const wrongPathDepth = 3

// chaseWrongPath issues the wrong-path probes shared by the FDIP-derived
// engines.
func chaseWrongPath(ctx Context, now uint64, start isa.Addr) {
	base := start.Block()
	for i := 0; i < wrongPathDepth; i++ {
		ctx.Hier.PrefetchBlock(now, base+isa.Addr(i*isa.BlockBytes))
	}
}
