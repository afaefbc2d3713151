package workload

import (
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/program"
)

func testProgram(t testing.TB) *program.Program {
	t.Helper()
	return program.MustGenerate(program.GenParams{NumAppFuncs: 80, NumKernelFuncs: 20}, 99)
}

func TestWalkerControlFlowContinuity(t *testing.T) {
	w := NewWalker(testProgram(t), 1)
	prev := w.Next()
	for i := 0; i < 50000; i++ {
		bb := w.Next()
		if bb.PC != prev.Next() {
			t.Fatalf("block %d: PC %v does not follow previous Next() %v (prev=%+v)", i, bb.PC, prev.Next(), prev)
		}
		prev = bb
	}
}

func TestWalkerBlocksValid(t *testing.T) {
	w := NewWalker(testProgram(t), 2)
	for i := 0; i < 50000; i++ {
		bb := w.Next()
		if err := bb.Validate(); err != nil {
			t.Fatalf("block %d invalid: %v (%+v)", i, err, bb)
		}
	}
}

func TestWalkerDeterministic(t *testing.T) {
	p := testProgram(t)
	a, b := NewWalker(p, 7), NewWalker(p, 7)
	for i := 0; i < 20000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("walkers diverged at block %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestWalkerCompletesRequests(t *testing.T) {
	w := NewWalker(testProgram(t), 3)
	for i := 0; i < 200000 && w.Requests < 10; i++ {
		w.Next()
	}
	if w.Requests < 10 {
		t.Fatalf("only %d requests completed in 200k blocks; walk may be stuck", w.Requests)
	}
}

func TestWalkerCallStackBounded(t *testing.T) {
	p := testProgram(t)
	w := NewWalker(p, 4)
	maxDepth := p.MaxCallDepth()
	peak := 0
	for i := 0; i < 100000; i++ {
		w.Next()
		if d := len(w.stack); d > peak {
			peak = d
		}
	}
	if peak > maxDepth {
		t.Fatalf("call stack reached %d, program bound is %d", peak, maxDepth)
	}
	if peak == 0 {
		t.Fatal("no calls ever executed")
	}
}

func TestWalkerReturnsMatchCallSites(t *testing.T) {
	// Shadow the walker with a reference RAS: every return's target must
	// equal the fall-through of the matching call (while the stack is
	// non-empty). This is the invariant Shotgun's RIB+RAS design assumes.
	w := NewWalker(testProgram(t), 5)
	var ras []isa.Addr
	for i := 0; i < 100000; i++ {
		bb := w.Next()
		switch {
		case bb.Kind.IsCallLike():
			ras = append(ras, bb.FallThrough())
		case bb.Kind.IsReturn():
			if len(ras) == 0 {
				continue // request boundary: dispatcher transfer
			}
			want := ras[len(ras)-1]
			ras = ras[:len(ras)-1]
			if bb.Target != want {
				t.Fatalf("block %d: return to %v, call site expects %v", i, bb.Target, want)
			}
		}
	}
}

func TestWalkerLoopsTerminate(t *testing.T) {
	// A walk over a loop-heavy program must keep making global progress:
	// requests complete.
	p := program.MustGenerate(program.GenParams{
		NumAppFuncs: 60, NumKernelFuncs: 12, LoopFrac: 0.5, LoopMeanIters: 20,
	}, 5)
	w := NewWalker(p, 6)
	for i := 0; i < 500000 && w.Requests < 3; i++ {
		w.Next()
	}
	if w.Requests < 3 {
		t.Fatalf("loop-heavy walk completed only %d requests", w.Requests)
	}
}

func TestWalkerCounters(t *testing.T) {
	w := NewWalker(testProgram(t), 8)
	n := 1000
	var instr uint64
	for i := 0; i < n; i++ {
		instr += uint64(w.Next().NumInstr)
	}
	if w.Blocks != uint64(n) {
		t.Fatalf("Blocks = %d, want %d", w.Blocks, n)
	}
	if w.Instructions != instr {
		t.Fatalf("Instructions = %d, want %d", w.Instructions, instr)
	}
}

func TestSkip(t *testing.T) {
	p := testProgram(t)
	a, b := NewWalker(p, 9), NewWalker(p, 9)
	a.Skip(1234)
	for i := 0; i < 1234; i++ {
		b.Next()
	}
	if x, y := a.Next(), b.Next(); x != y {
		t.Fatalf("Skip diverges from Next loop: %+v vs %+v", x, y)
	}
}

// BenchmarkWalkerNext measures the walker's per-block cost, which must
// not allocate: loop counters live on one stack per walker.
func BenchmarkWalkerNext(b *testing.B) {
	w := NewWalker(testProgram(b), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Next()
	}
}
