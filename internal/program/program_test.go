package program

import (
	"math/bits"
	"testing"
	"unsafe"

	"shotgun/internal/isa"
)

func smallParams() GenParams {
	return GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}
}

func TestGenerateValid(t *testing.T) {
	p, err := Generate(smallParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallParams(), 42)
	b := MustGenerate(smallParams(), 42)
	if len(a.Funcs) != len(b.Funcs) {
		t.Fatalf("function counts differ: %d vs %d", len(a.Funcs), len(b.Funcs))
	}
	for i := range a.Funcs {
		fa, fb := a.Funcs[i], b.Funcs[i]
		if fa.Entry() != fb.Entry() || len(fa.Blocks) != len(fb.Blocks) {
			t.Fatalf("function %d differs between runs", i)
		}
		for j := range fa.Blocks {
			if fa.Blocks[j] != fb.Blocks[j] {
				t.Fatalf("function %d block %d differs: %+v vs %+v", i, j, fa.Blocks[j], fb.Blocks[j])
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(smallParams(), 1)
	b := MustGenerate(smallParams(), 2)
	same := true
	for i := range a.Funcs {
		if a.Funcs[i].Entry() != b.Funcs[i].Entry() || len(a.Funcs[i].Blocks) != len(b.Funcs[i].Blocks) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGenerateManySeedsValidate(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		p, err := Generate(smallParams(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !p.WeakestLayerPreserved() {
			t.Fatalf("seed %d: trap entries not above kernel internals", seed)
		}
	}
}

func TestLayoutDisjoint(t *testing.T) {
	p := MustGenerate(smallParams(), 7)
	type span struct{ lo, hi isa.Addr }
	var spans []span
	for _, f := range p.Funcs {
		spans = append(spans, span{f.Entry(), f.End()})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("functions %d and %d overlap: [%v,%v) vs [%v,%v)", i, j, a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestKernelAddressSeparation(t *testing.T) {
	params := smallParams()
	p := MustGenerate(params, 3)
	for _, f := range p.Funcs {
		inKernel := f.Entry() >= 0x7f00_0000_0000
		wantKernel := f.Role != RoleApp
		if inKernel != wantKernel {
			t.Fatalf("function %d (%v) at %v: wrong address space", f.ID, f.Role, f.Entry())
		}
	}
}

func TestMaxCallDepthBounded(t *testing.T) {
	p := MustGenerate(smallParams(), 5)
	d := p.MaxCallDepth()
	// Defaults: 6 app layers + trap + 3 kernel layers + 1.
	if d <= 0 || d > 6+1+3+1 {
		t.Fatalf("MaxCallDepth = %d, want in (0, 11]", d)
	}
}

func TestStaticBranchesCounted(t *testing.T) {
	p := MustGenerate(smallParams(), 9)
	n := p.StaticBranches()
	total := 0
	for _, f := range p.Funcs {
		total += len(f.Blocks)
	}
	if n <= 0 || n > total {
		t.Fatalf("StaticBranches = %d, total blocks = %d", n, total)
	}
	// Nearly every block ends in a branch (BranchNone is rare).
	if float64(n) < 0.7*float64(total) {
		t.Fatalf("too few branches: %d of %d blocks", n, total)
	}
}

func TestFunctionGeometry(t *testing.T) {
	p := MustGenerate(smallParams(), 11)
	for _, f := range p.Funcs {
		spanned := map[isa.Addr]bool{}
		for bi, sb := range f.Blocks {
			first, last := isa.BasicBlock{PC: f.BlockPC(bi), NumInstr: int(sb.NumInstr)}.BlockSpan()
			for blk := first; blk <= last; blk += isa.BlockBytes {
				spanned[blk] = true
			}
		}
		if f.SizeBlocks() != len(spanned) {
			t.Fatalf("function %d: SizeBlocks %d, its blocks span %d cache blocks", f.ID, f.SizeBlocks(), len(spanned))
		}
		if f.End() <= f.Entry() {
			t.Fatalf("function %d empty range", f.ID)
		}
	}
	if p.CodeBytes() == 0 {
		t.Fatal("zero code bytes")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Program { return MustGenerate(smallParams(), 13) }

	p := fresh()
	p.Funcs[0].Blocks[0].NumInstr = 0
	if p.Validate() == nil {
		t.Error("zero-size block accepted")
	}

	p = fresh()
	p.Funcs[0].Blocks[len(p.Funcs[0].Blocks)-1].Kind = isa.BranchJump
	if p.Validate() == nil {
		t.Error("function not ending in return accepted")
	}

	p = fresh()
	// Find a call block and cross-wire it to a trap entry.
	done := false
	for _, f := range p.Funcs {
		for i, b := range f.Blocks {
			if b.Kind == isa.BranchCall {
				f.Blocks[i].Callee = p.TrapEntries[0]
				done = true
				break
			}
		}
		if done {
			break
		}
	}
	if done && p.Validate() == nil {
		t.Error("call to trap entry accepted")
	}

	p = fresh()
	// Break layering: find a call and point it at a same-layer function.
	done = false
	for _, f := range p.Funcs {
		if f.Role != RoleApp {
			continue
		}
		for i, b := range f.Blocks {
			if b.Kind != isa.BranchCall {
				continue
			}
			for _, g := range p.Funcs {
				if g.Role == RoleApp && g.Layer == f.Layer && g.ID != f.ID {
					f.Blocks[i].Callee = g.ID
					done = true
					break
				}
			}
			break
		}
		if done {
			break
		}
	}
	if done && p.Validate() == nil {
		t.Error("same-layer call accepted")
	}
}

// TestValidateRefusesOverflow hand-builds functions that do not fit the
// narrowed fields: more blocks than a 16-bit TargetIdx can index, code
// whose derived addresses run past the top of the address space, and a
// block offset that is not the running sum of the sizes before it (what
// a truncated offset would leave). Validate must refuse each one, and
// accept the largest function TargetIdx can index.
func TestValidateRefusesOverflow(t *testing.T) {
	fn := func(entry isa.Addr, blocks int) *Program {
		f := &Function{Role: RoleApp, entry: entry, Blocks: make([]StaticBlock, blocks)}
		for i := range f.Blocks {
			f.Blocks[i] = StaticBlock{Off: uint32(i) * 4, NumInstr: 4, Callee: NoFunc}
		}
		f.Blocks[blocks-1].Kind = isa.BranchRet
		return &Program{Funcs: []*Function{f}, AppFuncs: []FuncID{0}}
	}
	if err := fn(0x1000, MaxFuncBlocks).Validate(); err != nil {
		t.Fatalf("function of MaxFuncBlocks blocks refused: %v", err)
	}
	p := fn(0x1000, MaxFuncBlocks+1)
	// A jump to the last block, whose index 16 bits truncate to 0.
	target := MaxFuncBlocks
	jump := &p.Funcs[0].Blocks[MaxFuncBlocks-1]
	jump.Kind, jump.TargetIdx = isa.BranchJump, uint16(target)
	if p.Validate() == nil {
		t.Error("function of MaxFuncBlocks+1 blocks accepted")
	}
	if p := fn(^isa.Addr(0)-31, 2); p.Validate() == nil {
		t.Error("function ending past the top of the address space accepted")
	}
	if err := fn(^isa.Addr(0)-32, 2).Validate(); err != nil {
		t.Errorf("function ending just below the top of the address space refused: %v", err)
	}
	p = fn(0x1000, 3)
	p.Funcs[0].Blocks[2].Off = 4
	if p.Validate() == nil {
		t.Error("block offset that is not the running sum accepted")
	}
}

func TestGenerateRejectsTinyPrograms(t *testing.T) {
	_, err := Generate(GenParams{NumAppFuncs: 2, AppLayers: 6, NumKernelFuncs: 4}, 1)
	if err == nil {
		t.Fatal("expected error for fewer app functions than layers")
	}
}

func TestRoleString(t *testing.T) {
	if RoleApp.String() != "app" || RoleTrapEntry.String() != "trap-entry" || RoleKernelInternal.String() != "kernel" {
		t.Fatal("role names wrong")
	}
}

// TestHostSizeStaticBlock guards StaticBlock's 24-byte padding-free
// layout (widest field first): a field added in the wrong place grows
// every profile's block slab.
func TestHostSizeStaticBlock(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("layout pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(StaticBlock{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(StaticBlock{}) = %d, want 24", got)
	}
}

// TestHostSizeFunction guards Function's 48-byte padding-free layout
// (widest field first): every profile holds thousands of them.
func TestHostSizeFunction(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skip("layout pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Function{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Function{}) = %d, want 48", got)
	}
}
