package prefetch

import "shotgun/internal/isa"

// None is the no-prefetch baseline: a conventional basic-block BTB
// trained at decode time, no instruction prefetching of any kind.
type None struct {
	hooks
	decodeBTB
}

// NewNone builds the baseline with the given BTB entry count (Table 3:
// 2K entries).
func NewNone(_ Context, btbEntries int) *None {
	return &None{decodeBTB: newDecodeBTB(btbEntries)}
}

// Evaluate implements Engine: a BTB miss on a taken branch re-steers the
// front-end at decode; the decoded branch is inserted (training).
func (e *None) Evaluate(_ uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	return e.lookup(bb)
}
