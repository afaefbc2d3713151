// Package workload turns synthetic programs into dynamic basic-block
// streams and defines the six server-workload profiles used throughout
// the evaluation (the paper's Table 2 equivalents).
//
// The Walker executes a program.Program as a server would: an endless
// sequence of requests, each a complete execution of one root (handler)
// function, descending through the layered call graph, taking conditional
// branches according to per-branch biases and loop trip counts, and
// occasionally trapping into kernel handlers. The emitted stream is the
// retire-order basic-block trace that drives every simulation.
//
// Immutability contract: a workload's program and predecode image are
// process-wide shared artifacts, generated once per (generation, seed)
// by the registry (registry.go) and then never mutated. Every
// simulation — serial or concurrent — walks the same instance, so
// anything reachable from Profile.Program or Profile.Decoder must be
// treated as read-only; per-walk state lives entirely in the Walker.
package workload

import (
	"sort"
	"sync"

	"shotgun/internal/isa"
	"shotgun/internal/program"
	"shotgun/internal/xrand"
)

// Stream supplies an endless retire-order basic-block trace.
type Stream interface {
	// Next returns the next retired basic block.
	Next() isa.BasicBlock
}

// maxLoopTrip caps a single loop's trip count draw, bounding the tail of
// dynamic region lengths.
const maxLoopTrip = 64

// Walker executes a Program as an endless request-serving loop.
// It implements Stream. Walkers are deterministic in (program, seed).
type Walker struct {
	prog *program.Program
	rng  *xrand.Source

	stack []frame
	cur   frame
	// loops is the loop-counter stack of every frame on the call stack:
	// a frame's counters are loops[frame.loopBase:] up to the next
	// frame's base, and the current frame's run to the end.
	loops []loopCtr

	roots    []program.FuncID
	rootZipf *xrand.Zipf

	// Requests counts completed root-function executions.
	Requests uint64
	// Blocks counts emitted basic blocks.
	Blocks uint64
	// Instructions counts emitted instructions.
	Instructions uint64
}

type frame struct {
	fn  *program.Function
	idx int // next block index to execute on (re)entry
	// loopBase is where the frame's entries start in Walker.loops.
	loopBase int
}

// loopCtr tracks the remaining taken iterations of one loop back-edge,
// keyed by the back-edge block's index in its function (a frame's
// counters all belong to the frame's function). It is created on first
// encounter and removed when the loop exits.
type loopCtr struct {
	idx int
	rem int
}

// WalkerConfig tunes request dispatch.
type WalkerConfig struct {
	// RootLayers selects how many top call-graph layers serve as request
	// handlers (roots). Zero means the default of 3.
	RootLayers int
	// RootZipfS skews request-type popularity over the roots. Zero means
	// the default of 0.5 (mildly skewed, like a realistic URL mix).
	RootZipfS float64
}

func (c *WalkerConfig) setDefaults() {
	if c.RootLayers == 0 {
		c.RootLayers = 3
	}
	if c.RootZipfS == 0 {
		c.RootZipfS = 0.5
	}
}

// NewWalker builds a walker over prog with default dispatch configuration.
// Roots are the application functions in the top call-graph layers (the
// request handlers); request types are Zipf-distributed over them.
func NewWalker(prog *program.Program, seed uint64) *Walker {
	return NewWalkerConfig(prog, seed, WalkerConfig{})
}

// NewWalkerConfig builds a walker with explicit dispatch configuration.
func NewWalkerConfig(prog *program.Program, seed uint64, cfg WalkerConfig) *Walker {
	cfg.setDefaults()
	w := &Walker{prog: prog, rng: xrand.New(seed)}
	w.roots = sortedRoots(prog, cfg.RootLayers)
	w.rootZipf = xrand.NewZipf(w.rng, len(w.roots), cfg.RootZipfS)
	w.cur = frame{fn: prog.Func(w.pickRoot())}
	return w
}

// rootsCache memoizes the size-ranked handler set per (program,
// RootLayers). Root selection and the closure-size DFS walk only the
// immutable shared program, so the result is identical for every walker
// over the same program — recomputing it per core per scenario was a
// measurable slice of multi-core scenario setup. Cached slices are
// shared across walkers and must never be mutated.
var rootsCache sync.Map

type rootsKey struct {
	prog   *program.Program
	layers int
}

func sortedRoots(prog *program.Program, rootLayers int) []program.FuncID {
	key := rootsKey{prog, rootLayers}
	if v, ok := rootsCache.Load(key); ok {
		return v.([]program.FuncID)
	}
	var roots []program.FuncID
	maxLayer := 0
	for _, id := range prog.AppFuncs {
		if l := prog.Func(id).Layer; l > maxLayer {
			maxLayer = l
		}
	}
	for _, id := range prog.AppFuncs {
		if prog.Func(id).Layer > maxLayer-rootLayers {
			roots = append(roots, id)
		}
	}
	if len(roots) == 0 {
		roots = append([]program.FuncID(nil), prog.AppFuncs...)
	}
	// Rank request types by the size of their static call tree so the
	// Zipf head lands on the heavyweight handlers (the big transactions
	// dominate server time, not the trivial ones).
	sizes := closureSizes(prog, roots)
	sort.SliceStable(roots, func(i, j int) bool {
		return sizes[roots[i]] > sizes[roots[j]]
	})
	v, _ := rootsCache.LoadOrStore(key, roots)
	return v.([]program.FuncID)
}

// closureSizes returns the static call-closure size of each root.
func closureSizes(prog *program.Program, roots []program.FuncID) map[program.FuncID]int {
	out := make(map[program.FuncID]int, len(roots))
	for _, r := range roots {
		seen := map[program.FuncID]bool{}
		stack := []program.FuncID{r}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[id] {
				continue
			}
			seen[id] = true
			for _, blk := range prog.Func(id).Blocks {
				if (blk.Kind == isa.BranchCall || blk.Kind == isa.BranchTrap) && !seen[blk.Callee] {
					stack = append(stack, blk.Callee)
				}
			}
		}
		out[r] = len(seen)
	}
	return out
}

// Program returns the program being walked.
func (w *Walker) Program() *program.Program { return w.prog }

func (w *Walker) pickRoot() program.FuncID {
	return w.roots[w.rootZipf.Next()]
}

// Next emits the next retired basic block. The emitted sequence is
// control-flow consistent: each block's PC equals the previous block's
// Next() address.
func (w *Walker) Next() isa.BasicBlock {
	f := w.cur.fn
	blk := &f.Blocks[w.cur.idx]
	out := isa.BasicBlock{PC: f.Entry().Add(int(blk.Off)), NumInstr: int(blk.NumInstr), Kind: blk.Kind}

	switch blk.Kind {
	case isa.BranchNone:
		w.cur.idx++

	case isa.BranchCond:
		taken := false
		if blk.IsLoop {
			taken = w.loopTaken(blk, w.cur.idx)
		} else {
			taken = w.rng.Bool(blk.Bias())
		}
		out.Taken = taken
		if taken {
			w.cur.idx = int(blk.TargetIdx)
			out.Target = f.BlockPC(w.cur.idx)
		} else {
			w.cur.idx++
		}

	case isa.BranchJump:
		out.Taken = true
		w.cur.idx = int(blk.TargetIdx)
		out.Target = f.BlockPC(w.cur.idx)

	case isa.BranchCall, isa.BranchTrap:
		out.Taken = true
		callee := w.prog.Func(blk.Callee)
		out.Target = callee.Entry()
		resume := w.cur
		resume.idx++
		w.stack = append(w.stack, resume)
		w.cur = frame{fn: callee, loopBase: len(w.loops)}

	case isa.BranchRet, isa.BranchTrapRet:
		out.Taken = true
		// The finished frame's loop counters die with it.
		w.loops = w.loops[:w.cur.loopBase]
		if n := len(w.stack); n > 0 {
			w.cur = w.stack[n-1]
			w.stack = w.stack[:n-1]
			out.Target = w.cur.fn.BlockPC(w.cur.idx)
		} else {
			// Request complete: the server loop dispatches the next
			// request. The return "targets" the next handler's entry,
			// modeling the dispatcher's indirect control transfer.
			w.Requests++
			next := w.prog.Func(w.pickRoot())
			out.Target = next.Entry()
			w.cur = frame{fn: next}
		}
	}

	w.Blocks++
	w.Instructions += uint64(out.NumInstr)
	return out
}

// loopTaken implements trip-count semantics for loop back-edges: on first
// encounter a remaining-takes counter is drawn; the branch is taken while
// the counter is positive. idx is blk's index in the current function.
func (w *Walker) loopTaken(blk *program.StaticBlock, idx int) bool {
	for i := w.cur.loopBase; i < len(w.loops); i++ {
		l := &w.loops[i]
		if l.idx != idx {
			continue
		}
		if l.rem > 0 {
			l.rem--
			return true
		}
		last := len(w.loops) - 1
		w.loops[i] = w.loops[last]
		w.loops = w.loops[:last]
		return false
	}
	mean := blk.LoopMeanIters()
	if mean < 1 {
		mean = 1
	}
	var rem int
	if blk.LoopFixed {
		rem = int(mean + 0.5)
	} else {
		rem = w.rng.Geometric(1 / (mean + 1))
	}
	if rem > maxLoopTrip {
		rem = maxLoopTrip
	}
	if rem > 0 {
		w.loops = append(w.loops, loopCtr{idx: idx, rem: rem - 1})
		return true
	}
	return false
}

// Skip advances the stream by n blocks, discarding them. Used to
// fast-forward past warmup regions in analysis passes.
func (w *Walker) Skip(n int) {
	for i := 0; i < n; i++ {
		w.Next()
	}
}
