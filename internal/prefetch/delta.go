package prefetch

import "shotgun/internal/isa"

// Delta is a delta-pattern instruction prefetcher: a shift register
// records the deltas (in cache blocks) between consecutively evaluated
// basic-block addresses, a matcher looks for the shortest repeating
// delta cycle in that register, and on a match the engine prefetches
// along the projected continuation of the cycle. Loop-heavy code with a
// stable block stride — including strides spanning multiple branches —
// is covered without any BTB-directed lookahead, which makes Delta the
// structural opposite of the FDIP lineage: it needs no runahead BPU
// accuracy, but it cannot anticipate irregular control flow.
//
// The BTB side is the conventional baseline (None): a miss on a taken
// branch re-steers the front-end at decode. The delta stream follows the
// trace, not a predicted path, so a misprediction has nothing to chase.
type Delta struct {
	hooks
	decodeBTB
	ctx Context

	matcher deltaMatcher

	// MatchedPrefetches counts probes issued along matched delta cycles.
	MatchedPrefetches uint64
}

const (
	// deltaHistLen is the shift register's depth: a cycle of period p is
	// only accepted once it has filled 2p register slots, so the longest
	// detectable period is deltaHistLen/2.
	deltaHistLen = 16
	// deltaMaxPeriod bounds the repeating-cycle search.
	deltaMaxPeriod = 4
	// deltaDegree is the prefetch degree: how many blocks ahead the
	// matched cycle is projected.
	deltaDegree = 4
)

// deltaMatcher is the delta shift register plus its repeating-cycle
// detector. All state is fixed-size — arbitrary address streams cannot
// grow it (FuzzDeltaMatcher pins this).
type deltaMatcher struct {
	deltas [deltaHistLen]int64 // block-address deltas, youngest last
	filled int
	last   isa.Addr
	have   bool
}

// observe shifts the delta from the previously observed block address
// into the register. The first observation only seeds the register.
func (m *deltaMatcher) observe(block isa.Addr) {
	if m.have {
		d := int64(block-m.last) / isa.BlockBytes
		copy(m.deltas[:], m.deltas[1:])
		m.deltas[deltaHistLen-1] = d
		if m.filled < deltaHistLen {
			m.filled++
		}
	}
	m.last = block
	m.have = true
}

// match returns the shortest period p in [1, deltaMaxPeriod] whose last
// p deltas repeat the p before them. All-zero cycles (the same block
// re-observed) carry no prefetchable information and are rejected.
func (m *deltaMatcher) match() (int, bool) {
	for p := 1; p <= deltaMaxPeriod; p++ {
		if m.filled < 2*p {
			break
		}
		repeating := true
		nonzero := false
		for i := 0; i < p; i++ {
			a := m.deltas[deltaHistLen-1-i]
			if a != m.deltas[deltaHistLen-1-p-i] {
				repeating = false
				break
			}
			if a != 0 {
				nonzero = true
			}
		}
		if repeating && nonzero {
			return p, true
		}
	}
	return 0, false
}

// project extrapolates the matched period-p cycle forward from base,
// writing up to len(dst) block addresses and returning how many.
func (m *deltaMatcher) project(base isa.Addr, p int, dst []isa.Addr) int {
	addr := base
	for i := range dst {
		addr += isa.Addr(m.deltas[deltaHistLen-p+i%p] * isa.BlockBytes)
		dst[i] = addr
	}
	return len(dst)
}

// NewDelta builds the engine with the given conventional-BTB entry count.
func NewDelta(ctx Context, btbEntries int) *Delta {
	return &Delta{decodeBTB: newDecodeBTB(btbEntries), ctx: ctx}
}

// Evaluate implements Engine: train the delta register on the block's
// address, prefetch along a matched cycle, and evaluate the
// conventional BTB (miss on a taken branch: decode re-steer).
func (e *Delta) Evaluate(now uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	e.matcher.observe(bb.PC.Block())
	if p, ok := e.matcher.match(); ok {
		var buf [deltaDegree]isa.Addr
		n := e.matcher.project(bb.PC.Block(), p, buf[:])
		for i := 0; i < n; i++ {
			e.ctx.Hier.PrefetchBlock(now, buf[i])
			e.MatchedPrefetches++
		}
	}
	return e.lookup(bb)
}

// Warm implements Engine: BTB and delta-register training without any
// prefetch traffic — the probes are pure timing behaviour, re-issued by
// the detailed warm-up blocks.
func (e *Delta) Warm(bb isa.BasicBlock) {
	e.matcher.observe(bb.PC.Block())
	e.decodeBTB.Warm(bb)
}

// ResetStats implements Engine.
func (e *Delta) ResetStats() {
	e.decodeBTB.ResetStats()
	e.MatchedPrefetches = 0
}
