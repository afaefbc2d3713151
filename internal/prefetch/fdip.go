package prefetch

import "shotgun/internal/isa"

// FDIP is fetch-directed instruction prefetching (Reinman, Calder &
// Austin '99): the branch-prediction unit runs ahead of fetch, and every
// fetch address entering the FTQ triggers an L1-I prefetch probe. On a
// BTB miss FDIP speculates through: it keeps prefetching straight-line
// code, which is wrong whenever the undetected branch was taken — the
// limitation Section 3.2 describes.
//
// Warm is decodeBTB's BTB training only: FDIP's probes are pure timing
// traffic, re-established by the detailed warm-up blocks.
type FDIP struct {
	hooks
	decodeBTB
	ctx Context

	// WrongPathPrefetches counts the straight-line probes issued past an
	// undetected taken branch.
	WrongPathPrefetches uint64
}

// fdipSpecDepth is how many sequential blocks FDIP prefetches past an
// undetected taken branch before the decode re-steer catches up.
const fdipSpecDepth = 2

// NewFDIP builds the engine with the given BTB entry count.
func NewFDIP(ctx Context, btbEntries int) *FDIP {
	return &FDIP{decodeBTB: newDecodeBTB(btbEntries), ctx: ctx}
}

// Evaluate implements Engine.
func (e *FDIP) Evaluate(now uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	prefetchBlocks(e.ctx, now, bb)
	ev := e.lookup(bb)
	if ev.DecodeRedirect {
		// Speculate straight-line: prefetch the fall-through blocks the
		// real FDIP would have chased before the decode redirect.
		next := bb.FallThrough().Block()
		for i := 1; i <= fdipSpecDepth; i++ {
			e.ctx.Hier.PrefetchBlock(now, next+isa.Addr(i*isa.BlockBytes))
			e.WrongPathPrefetches++
		}
	}
	return ev
}

// ResetStats implements Engine.
func (e *FDIP) ResetStats() {
	e.decodeBTB.ResetStats()
	e.WrongPathPrefetches = 0
}

// OnMispredict implements Engine: FDIP chases the predicted (wrong) path.
func (e *FDIP) OnMispredict(now uint64, wrongPath isa.Addr) {
	chaseWrongPath(e.ctx, now, wrongPath)
	e.WrongPathPrefetches += wrongPathDepth
}
