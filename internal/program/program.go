// Package program models a synthetic server application as a static code
// image: a set of functions, each a contiguous run of basic blocks, plus a
// layered call graph. The model captures exactly the structure the Shotgun
// paper's insights rest on (Section 3):
//
//   - code is a collection of mostly-small functions with high spatial
//     locality inside each function;
//   - short-offset conditional branches steer local control flow;
//   - long-offset unconditional branches (calls, returns, traps) steer
//     global control flow between functions.
//
// Programs are generated deterministically from a parameter set and a
// seed (see Generate), and are executed by the CFG walker in package
// workload to produce basic-block traces.
package program

import (
	"fmt"

	"shotgun/internal/isa"
)

// FuncID identifies a function within a Program.
type FuncID int32

// NoFunc marks the absence of a callee.
const NoFunc FuncID = -1

// Role classifies a function's position in the software stack.
type Role uint8

const (
	// RoleApp is ordinary application code; the CFG walk starts here.
	RoleApp Role = iota
	// RoleTrapEntry is a kernel trap-handler entry point: entered via
	// BranchTrap, left via BranchTrapRet.
	RoleTrapEntry
	// RoleKernelInternal is kernel code below the trap entries, reached
	// via ordinary calls from trap entries and returning via BranchRet.
	RoleKernelInternal
)

func (r Role) String() string {
	switch r {
	case RoleApp:
		return "app"
	case RoleTrapEntry:
		return "trap-entry"
	case RoleKernelInternal:
		return "kernel"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// StaticBlock is one static basic block inside a function. The block's
// terminating branch is described by Kind and the target fields.
//
// Fields run from widest to narrowest, so a block takes 48 bytes with no
// padding: the static blocks of the six profiles are most of the live
// heap of a multi-core run.
type StaticBlock struct {
	// PC is the address of the block's first instruction.
	PC isa.Addr
	// Bias is the probability a conditional branch is taken (ignored for
	// loop back-edges, which use trip counts instead).
	Bias float64
	// LoopMeanIters is the mean trip count for loop back-edges.
	LoopMeanIters float64
	// NumInstr is the block length in instructions (terminator included).
	NumInstr int
	// TargetIdx is the index (within the same function) of the taken
	// target block for conditional branches and jumps. Unused otherwise.
	TargetIdx int
	// Callee is the called function for BranchCall / BranchTrap blocks.
	Callee FuncID
	// Kind is the terminating branch kind. BranchNone means the block
	// falls through (a straight-line run split only for size).
	Kind isa.BranchKind
	// IsLoop marks a backward conditional branch governed by a trip
	// count rather than a static bias.
	IsLoop bool
	// LoopFixed makes the trip count deterministic (round(LoopMeanIters)
	// every execution) — the common case for server code iterating over
	// fixed-size structures, and the source of the temporal repetition
	// that history-based prefetchers exploit.
	LoopFixed bool
}

// Function is a contiguous run of static blocks.
type Function struct {
	ID     FuncID
	Name   string
	Role   Role
	Blocks []StaticBlock
	// Layer is the function's position in the layered (acyclic) call
	// graph within its role group: a function only calls functions in
	// strictly lower layers of the same group, bounding dynamic call
	// depth by construction. Traps are exempt (they start the kernel
	// stack on top of the application stack).
	Layer int
}

// Entry returns the function's entry address.
func (f *Function) Entry() isa.Addr { return f.Blocks[0].PC }

// End returns the address just past the function's last instruction.
func (f *Function) End() isa.Addr {
	last := f.Blocks[len(f.Blocks)-1]
	return last.PC.Add(last.NumInstr)
}

// BlockSpan returns the indexes of the first and last cache blocks the
// function's code occupies: the blocks of its entry and of its last
// instruction.
func (f *Function) BlockSpan() (first, last uint64) {
	lb := &f.Blocks[len(f.Blocks)-1]
	return f.Entry().BlockIndex(), lb.PC.Add(lb.NumInstr - 1).BlockIndex()
}

// SizeBlocks returns the function's code size in cache blocks.
func (f *Function) SizeBlocks() int {
	first, last := f.BlockSpan()
	return int(last-first) + 1
}

// RetKind returns the branch kind this function returns with.
func (f *Function) RetKind() isa.BranchKind {
	if f.Role == RoleTrapEntry {
		return isa.BranchTrapRet
	}
	return isa.BranchRet
}

// Program is a complete synthetic code image.
type Program struct {
	Funcs []*Function
	// AppFuncs lists application functions (walk roots); TrapEntries
	// lists the kernel trap-handler entry points BranchTrap sites target.
	AppFuncs    []FuncID
	TrapEntries []FuncID
}

// Func returns the function with the given ID.
func (p *Program) Func(id FuncID) *Function { return p.Funcs[id] }

// CodeBytes returns the total code image size in bytes.
func (p *Program) CodeBytes() uint64 {
	var total uint64
	for _, f := range p.Funcs {
		total += uint64(f.End() - f.Entry())
	}
	return total
}

// StaticBranches returns the total number of static branch instructions
// (blocks terminated by a real branch).
func (p *Program) StaticBranches() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Kind != isa.BranchNone {
				n++
			}
		}
	}
	return n
}

// MaxCallDepth returns an upper bound on dynamic call-stack depth derived
// from the layering invariant: the longest application chain, plus one
// trap entry, plus the longest kernel-internal chain.
func (p *Program) MaxCallDepth() int {
	maxApp, maxKern := 0, 0
	for _, f := range p.Funcs {
		switch f.Role {
		case RoleApp:
			if f.Layer > maxApp {
				maxApp = f.Layer
			}
		case RoleKernelInternal:
			if f.Layer > maxKern {
				maxKern = f.Layer
			}
		}
	}
	depth := maxApp + 1
	if len(p.TrapEntries) > 0 {
		depth += 1 + maxKern + 1
	}
	return depth
}

// Validate checks the structural invariants every generated program must
// satisfy: contiguous block layout, sane block sizes, acyclic layered
// calls (bounded dynamic call depth), traps targeting trap entries, and
// return kinds consistent with the function's role.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("program: no functions")
	}
	for id, f := range p.Funcs {
		if f.ID != FuncID(id) {
			return fmt.Errorf("program: function %d has mismatched ID %d", id, f.ID)
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("program: function %d empty", id)
		}
		last := len(f.Blocks) - 1
		if k := f.Blocks[last].Kind; k != f.RetKind() {
			return fmt.Errorf("program: function %d (%v) must end with %v, ends with %v", id, f.Role, f.RetKind(), k)
		}
		pc := f.Blocks[0].PC
		for bi, b := range f.Blocks {
			if b.PC != pc {
				return fmt.Errorf("program: function %d block %d at %v, expected contiguous %v", id, bi, b.PC, pc)
			}
			if b.NumInstr <= 0 || b.NumInstr > isa.MaxBlockInstrs {
				return fmt.Errorf("program: function %d block %d bad size %d", id, bi, b.NumInstr)
			}
			switch b.Kind {
			case isa.BranchCond, isa.BranchJump:
				if b.TargetIdx < 0 || b.TargetIdx >= len(f.Blocks) {
					return fmt.Errorf("program: function %d block %d target %d out of range", id, bi, b.TargetIdx)
				}
				if b.TargetIdx == bi {
					return fmt.Errorf("program: function %d block %d self-targeting branch", id, bi)
				}
				if b.Kind == isa.BranchCond && !b.IsLoop && (b.Bias < 0 || b.Bias > 1) {
					return fmt.Errorf("program: function %d block %d bias %v out of [0,1]", id, bi, b.Bias)
				}
				if b.IsLoop && b.TargetIdx > bi {
					return fmt.Errorf("program: function %d block %d loop back-edge targets forward", id, bi)
				}
			case isa.BranchCall:
				if b.Callee == NoFunc || int(b.Callee) >= len(p.Funcs) {
					return fmt.Errorf("program: function %d block %d bad callee %d", id, bi, b.Callee)
				}
				callee := p.Funcs[b.Callee]
				if callee.Role == RoleTrapEntry {
					return fmt.Errorf("program: function %d calls trap entry %d via call", id, b.Callee)
				}
				if roleGroup(callee.Role) != roleGroup(f.Role) {
					return fmt.Errorf("program: function %d (%v) calls across role groups into %d (%v)",
						id, f.Role, b.Callee, callee.Role)
				}
				if callee.Layer >= f.Layer {
					return fmt.Errorf("program: function %d (layer %d) calls function %d (layer %d): not strictly layered",
						id, f.Layer, b.Callee, callee.Layer)
				}
			case isa.BranchTrap:
				if f.Role != RoleApp {
					return fmt.Errorf("program: non-app function %d contains a trap", id)
				}
				if b.Callee == NoFunc || int(b.Callee) >= len(p.Funcs) {
					return fmt.Errorf("program: function %d block %d bad trap target %d", id, bi, b.Callee)
				}
				if p.Funcs[b.Callee].Role != RoleTrapEntry {
					return fmt.Errorf("program: function %d traps to non-entry function %d", id, b.Callee)
				}
			case isa.BranchRet, isa.BranchTrapRet:
				if b.Kind != f.RetKind() {
					return fmt.Errorf("program: function %d block %d returns with %v, role needs %v",
						id, bi, b.Kind, f.RetKind())
				}
			}
			pc = pc.Add(b.NumInstr)
		}
	}
	for _, id := range p.TrapEntries {
		if p.Funcs[id].Role != RoleTrapEntry {
			return fmt.Errorf("program: TrapEntries lists non-entry function %d", id)
		}
	}
	return nil
}

// roleGroup maps trap entries and kernel internals into one call group so
// trap entries may call kernel internals, while app code stays separate.
func roleGroup(r Role) int {
	if r == RoleApp {
		return 0
	}
	return 1
}

// WeakestLayerPreserved reports whether trap entries sit strictly above
// every kernel-internal layer, which the layered-call invariant needs.
func (p *Program) WeakestLayerPreserved() bool {
	maxKern := -1
	for _, f := range p.Funcs {
		if f.Role == RoleKernelInternal && f.Layer > maxKern {
			maxKern = f.Layer
		}
	}
	for _, id := range p.TrapEntries {
		if p.Funcs[id].Layer <= maxKern {
			return false
		}
	}
	return true
}
