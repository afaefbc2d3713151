package prefetch

import "shotgun/internal/isa"

// Ideal is the opportunity bound of Figure 1: the BTB always hits and
// every instruction block is in the L1-I by the time it is fetched.
// Direction and return-address mispredictions remain — an ideal
// *front-end prefetcher* does not fix the direction predictor.
type Ideal struct {
	hooks
	ctx Context
}

// NewIdeal builds the ideal front-end.
func NewIdeal(ctx Context) *Ideal { return &Ideal{ctx: ctx} }

// Evaluate implements Engine: the block is installed as Warm installs
// it, and the BTB never misses.
func (e *Ideal) Evaluate(_ uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	e.Warm(bb)
	return Eval{BTBHit: true}
}

// Warm implements Engine: the block's cache blocks are installed into
// the L1-I with zero latency. Evaluate is already untimed, so it warms
// the same way.
func (e *Ideal) Warm(bb isa.BasicBlock) {
	first, last := bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		e.ctx.Hier.L1I.Insert(blk)
	}
}

// BTBMisses implements Engine.
func (e *Ideal) BTBMisses() uint64 { return 0 }

// ResetStats implements Engine.
func (e *Ideal) ResetStats() {}
