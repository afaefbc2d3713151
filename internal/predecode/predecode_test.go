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

func TestEveryBranchDecodable(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for _, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			branchPC := sb.PC.Add(sb.NumInstr - 1)
			br, ok := d.DecodeFor(sb.PC, branchPC)
			if !ok {
				t.Fatalf("branch at %v (block %v) not decodable", branchPC, sb.PC)
			}
			if br.Entry.Kind != sb.Kind || int(br.Entry.NumInstr) != sb.NumInstr {
				t.Fatalf("decoded %+v, want kind %v size %d", br.Entry, sb.Kind, sb.NumInstr)
			}
		}
	}
}

func TestTargetsResolved(t *testing.T) {
	prog := testProgram(t)
	d := NewDecoder(prog)
	for _, f := range prog.Funcs {
		for _, sb := range f.Blocks {
			branchPC := sb.PC.Add(sb.NumInstr - 1)
			br, ok := d.DecodeFor(sb.PC, branchPC)
			if !ok {
				continue
			}
			switch sb.Kind {
			case isa.BranchCond, isa.BranchJump:
				want := f.Blocks[sb.TargetIdx].PC
				if br.Entry.Target != want {
					t.Fatalf("local branch target %v, want %v", br.Entry.Target, want)
				}
			case isa.BranchCall, isa.BranchTrap:
				want := prog.Func(sb.Callee).Entry()
				if br.Entry.Target != want {
					t.Fatalf("call target %v, want %v", br.Entry.Target, want)
				}
			case isa.BranchRet, isa.BranchTrapRet:
				if br.Entry.Target != 0 {
					t.Fatalf("return must have no static target, got %v", br.Entry.Target)
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
		for _, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			cb := sb.PC.Add(sb.NumInstr - 1).Block()
			for _, br := range d.Decode(cb) {
				bpc := br.BlockPC.Add(int(br.Entry.NumInstr) - 1)
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

// TestHostSizeBranch guards the 24-byte predecoded Branch (block PC plus
// a 16-byte btb.Entry) that the predecode image holds per static branch.
func TestHostSizeBranch(t *testing.T) {
	if got := unsafe.Sizeof(Branch{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Branch{}) = %d, want 24", got)
	}
}
