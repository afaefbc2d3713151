package predecode

import (
	"testing"
	"unsafe"

	"shotgun/internal/isa"
	"shotgun/internal/program"
)

func testProgram(t testing.TB) *program.Program {
	t.Helper()
	return program.MustGenerate(program.GenParams{NumAppFuncs: 80, NumKernelFuncs: 20}, 42)
}

// decodeFor returns the predecoded branch of the basic block starting at
// blockPC, searching the cache block that holds its branch at branchPC.
func decodeFor(d *Decoder, blockPC, branchPC isa.Addr) (Branch, bool) {
	for _, br := range d.Decode(branchPC) {
		if br.BlockPC(branchPC) == blockPC {
			return br, true
		}
	}
	return Branch{}, false
}

func TestEveryBranchDecodable(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for bi, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			pc := f.BlockPC(bi)
			branchPC := pc.Add(int(sb.NumInstr) - 1)
			br, ok := decodeFor(d, pc, branchPC)
			if !ok {
				t.Fatalf("branch at %v (block %v) not decodable", branchPC, pc)
			}
			if br.Kind != sb.Kind || br.NumInstr != sb.NumInstr {
				t.Fatalf("decoded %+v, want kind %v size %d", br, sb.Kind, sb.NumInstr)
			}
		}
	}
}

func TestTargetsResolved(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for bi, sb := range f.Blocks {
			pc := f.BlockPC(bi)
			br, ok := decodeFor(d, pc, pc.Add(int(sb.NumInstr)-1))
			if !ok {
				continue
			}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				want := f.BlockPC(int(sb.TargetIdx))
				if br.Target != want {
					t.Fatalf("local branch target %v, want %v", br.Target, want)
				}
			case isa.BranchCall, isa.BranchTrap:
				want := prog.Func(sb.Callee).Entry()
				if br.Target != want {
					t.Fatalf("call target %v, want %v", br.Target, want)
				}
			case isa.BranchRet, isa.BranchTrapRet:
				if br.Target != 0 {
					t.Fatalf("return must have no static target, got %v", br.Target)
				}
			}
		}
	}
}

func TestDecodeGroupsByCacheBlock(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	if d.Blocks() == 0 {
		t.Fatal("no blocks indexed")
	}
	// Every branch returned for a block must actually live in that block.
	checked := 0
	for _, f := range prog.Funcs {
		for bi, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			cb := f.BlockPC(bi).Add(int(sb.NumInstr) - 1).Block()
			for _, br := range d.Decode(cb) {
				bpc := br.BlockPC(cb).Add(int(br.NumInstr) - 1)
				if bpc.Block() != cb {
					t.Fatalf("branch %v listed under block %v", bpc, cb)
				}
				checked++
			}
			if checked > 2000 {
				return
			}
		}
	}
}

func TestDecodeUnknownBlockEmpty(t *testing.T) {
	d := NewDecoder(testProgram(t))
	if got := d.Decode(0xdead0000); got != nil {
		t.Fatalf("unknown block decoded to %v", got)
	}
}

func BenchmarkDecode(b *testing.B) {
	prog := testProgram(b)
	d := NewDecoder(prog)
	entry := prog.Funcs[0].Entry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(entry + isa.Addr((i%64)*isa.BlockBytes))
	}
}

// TestHostSizeBranch guards the 16-byte predecoded Branch (target, size,
// kind and in-block offset; the block PC is derived) that the predecode
// image holds per static branch.
func TestHostSizeBranch(t *testing.T) {
	if got := unsafe.Sizeof(Branch{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Branch{}) = %d, want 16", got)
	}
}
