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
//
// A program is the largest structure every process keeps, so it stores
// its code image once, at the size of what the model reads: all of its
// static blocks sit in one slab (each Function.Blocks is a
// capacity-capped sub-slice of it, in function ID order), and a block
// holds its instruction offset from the function's entry rather than its
// address (Function.BlockPC derives the address). Validate refuses a
// function that does not fit the narrowed fields.
package program

import (
	"fmt"
	"math"

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
// A block stores only what the model reads, in 24 bytes with no padding
// (widest field first): the static blocks of the six profiles are the
// largest part of every process's live heap. Its address is derived from
// its function (Function.BlockPC), and a loop back-edge's mean trip count
// shares one float64 with a conditional's bias, since a block is either
// biased or a loop, never both.
type StaticBlock struct {
	// param is Bias for a biased conditional branch and LoopMeanIters for
	// a loop back-edge; zero for every other block.
	param float64
	// Off is the offset, in instructions, of the block's first
	// instruction from its function's entry.
	Off uint32
	// Callee is the called function for BranchCall / BranchTrap blocks.
	Callee FuncID
	// TargetIdx is the index (within the same function) of the taken
	// target block for conditional branches and jumps. Unused otherwise.
	TargetIdx uint16
	// NumInstr is the block length in instructions (terminator included).
	NumInstr uint8
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

// Bias is the probability a conditional branch is taken; zero for loop
// back-edges, which use trip counts instead.
func (b StaticBlock) Bias() float64 {
	if b.IsLoop {
		return 0
	}
	return b.param
}

// LoopMeanIters is the mean trip count of a loop back-edge; zero for
// every other block.
func (b StaticBlock) LoopMeanIters() float64 {
	if !b.IsLoop {
		return 0
	}
	return b.param
}

// MaxFuncBlocks is the most static blocks a function may hold: TargetIdx
// indexes them in 16 bits.
const MaxFuncBlocks = math.MaxUint16 + 1

// Function is a contiguous run of static blocks. Fields run from widest
// to narrowest, so a function takes 48 bytes.
type Function struct {
	// Blocks is the function's run of static blocks in address order: a
	// capacity-capped sub-slice of one slab that holds every block of
	// the program, in function ID order.
	Blocks []StaticBlock
	// entry is the address of the first block's first instruction.
	entry isa.Addr
	// Layer is the function's position in the layered (acyclic) call
	// graph within its role group: a function only calls functions in
	// strictly lower layers of the same group, bounding dynamic call
	// depth by construction. Traps are exempt (they start the kernel
	// stack on top of the application stack).
	Layer int
	ID    FuncID
	Role  Role
}

// Entry returns the function's entry address.
func (f *Function) Entry() isa.Addr { return f.entry }

// BlockPC returns the address of block i's first instruction.
func (f *Function) BlockPC(i int) isa.Addr { return f.entry.Add(int(f.Blocks[i].Off)) }

// End returns the address just past the function's last instruction.
func (f *Function) End() isa.Addr {
	last := &f.Blocks[len(f.Blocks)-1]
	return f.entry.Add(int(last.Off) + int(last.NumInstr))
}

// BlockSpan returns the indexes of the first and last cache blocks the
// function's code occupies: the blocks of its entry and of its last
// instruction.
func (f *Function) BlockSpan() (first, last uint64) {
	return f.entry.BlockIndex(), (f.End() - isa.InstrBytes).BlockIndex()
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
// satisfy: contiguous block layout that fits the narrowed fields
// (MaxFuncBlocks blocks, offsets that are running sums, addresses below
// the top of the address space), sane block sizes, acyclic layered
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
		if len(f.Blocks) > MaxFuncBlocks {
			return fmt.Errorf("program: function %d has %d blocks, more than the %d TargetIdx can index", id, len(f.Blocks), MaxFuncBlocks)
		}
		last := len(f.Blocks) - 1
		if k := f.Blocks[last].Kind; k != f.RetKind() {
			return fmt.Errorf("program: function %d (%v) must end with %v, ends with %v", id, f.Role, f.RetKind(), k)
		}
		// Each block starts where the previous one ends, and the derived
		// addresses stay below the top of the address space.
		var off uint64
		for bi, b := range f.Blocks {
			if uint64(b.Off) != off {
				return fmt.Errorf("program: function %d block %d at offset %d, expected contiguous %d", id, bi, b.Off, off)
			}
			if b.NumInstr == 0 || b.NumInstr > isa.MaxBlockInstrs {
				return fmt.Errorf("program: function %d block %d bad size %d", id, bi, b.NumInstr)
			}
			off += uint64(b.NumInstr)
		}
		if uint64(f.entry) > math.MaxUint64-off*isa.InstrBytes {
			return fmt.Errorf("program: function %d at %v: %d instructions overflow the address space", id, f.entry, off)
		}
		for bi, b := range f.Blocks {
			switch b.Kind {
			case isa.BranchCond, isa.BranchJump:
				if int(b.TargetIdx) >= len(f.Blocks) {
					return fmt.Errorf("program: function %d block %d target %d out of range", id, bi, b.TargetIdx)
				}
				if int(b.TargetIdx) == bi {
					return fmt.Errorf("program: function %d block %d self-targeting branch", id, bi)
				}
				if b.Kind == isa.BranchCond && !b.IsLoop && (b.Bias() < 0 || b.Bias() > 1) {
					return fmt.Errorf("program: function %d block %d bias %v out of [0,1]", id, bi, b.Bias())
				}
				if b.IsLoop && int(b.TargetIdx) > bi {
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
