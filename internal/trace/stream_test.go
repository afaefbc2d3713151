package trace

import (
	"bytes"
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/program"
	"shotgun/internal/workload"
)

func TestStreamLoops(t *testing.T) {
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}, 1)
	w := workload.NewWalker(prog, 7)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	want := make([]isa.BasicBlock, 0, n)
	for i := 0; i < n; i++ {
		bb := w.Next()
		want = append(want, bb)
		if err := tw.Write(bb); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := NewStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != n {
		t.Fatalf("Blocks = %d, want %d", s.Blocks(), n)
	}
	// Three full passes: each must replay the identical sequence (the
	// rewind restarts the delta chain exactly as the writer emitted it).
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			if got := s.Next(); got != want[i] {
				t.Fatalf("pass %d block %d: got %+v want %+v", pass, i, got, want[i])
			}
		}
	}
	if s.Loops != 2 {
		t.Fatalf("Loops = %d, want 2", s.Loops)
	}
}

// recordTrace writes n walker blocks into a fresh trace, returning the
// encoded bytes and the expected block sequence.
func recordTrace(t *testing.T, seed uint64, n int) ([]byte, []isa.BasicBlock) {
	t.Helper()
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}, 1)
	w := workload.NewWalker(prog, seed)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]isa.BasicBlock, 0, n)
	for i := 0; i < n; i++ {
		bb := w.Next()
		want = append(want, bb)
		if err := tw.Write(bb); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestStreamPartialPassBoundary: after a partial read, crossing the
// end of the trace rewinds exactly once and replays the head — the
// delta chain restarts cleanly regardless of where the reader stopped.
func TestStreamPartialPassBoundary(t *testing.T) {
	const n = 50
	data, want := recordTrace(t, 11, n)
	s, err := NewStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	const partial = 20
	for i := 0; i < partial; i++ {
		if got := s.Next(); got != want[i] {
			t.Fatalf("block %d: got %+v want %+v", i, got, want[i])
		}
	}
	if s.Loops != 0 {
		t.Fatalf("Loops = %d before the first boundary, want 0", s.Loops)
	}
	// Finish the pass and cross into the next: the tail then the head,
	// with the loop counter ticking exactly at the boundary.
	for i := partial; i < n; i++ {
		if got := s.Next(); got != want[i] {
			t.Fatalf("block %d: got %+v want %+v", i, got, want[i])
		}
	}
	if got := s.Next(); got != want[0] {
		t.Fatalf("post-rewind block: got %+v want %+v", got, want[0])
	}
	if s.Loops != 1 {
		t.Fatalf("Loops = %d after one boundary, want 1", s.Loops)
	}
}

// TestStreamReusesPartiallyReadSource: NewStream seeks the source to
// its start, so a reader a previous stream abandoned mid-trace yields
// a fresh, complete stream.
func TestStreamReusesPartiallyReadSource(t *testing.T) {
	const n = 30
	data, want := recordTrace(t, 13, n)
	src := bytes.NewReader(data)
	first, err := NewStream(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		first.Next() // leave src mid-trace
	}
	second, err := NewStream(src)
	if err != nil {
		t.Fatalf("NewStream on a partially-read source: %v", err)
	}
	if second.Blocks() != n {
		t.Fatalf("Blocks = %d, want %d", second.Blocks(), n)
	}
	if got := second.Next(); got != want[0] {
		t.Fatalf("first block after reuse: got %+v want %+v", got, want[0])
	}
}

// TestStreamBlocksMatchesYield: Blocks() equals the count actually
// yielded per pass, across trace lengths including the one-block
// degenerate loop.
func TestStreamBlocksMatchesYield(t *testing.T) {
	for _, n := range []int{1, 3, 17} {
		data, want := recordTrace(t, uint64(100+n), n)
		s, err := NewStream(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.Blocks() != uint64(n) {
			t.Fatalf("n=%d: Blocks = %d", n, s.Blocks())
		}
		// Two passes of yields: after yielding global block i the stream
		// has completed exactly i/n loops (the boundary-crossing Next
		// rewinds and returns the next pass's first block in one call).
		for i := 0; i < 2*n; i++ {
			if bb := s.Next(); bb != want[i%n] {
				t.Fatalf("n=%d global block %d mismatch", n, i)
			}
			if s.Loops != uint64(i/n) {
				t.Fatalf("n=%d after block %d: Loops = %d, want %d", n, i, s.Loops, i/n)
			}
		}
	}
}

func TestStreamRejectsEmptyAndCorrupt(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStream(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("empty trace accepted")
	}

	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}, 1)
	w := workload.NewWalker(prog, 9)
	buf.Reset()
	tw, _ = NewWriter(&buf)
	for i := 0; i < 100; i++ {
		tw.Write(w.Next())
	}
	tw.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := NewStream(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
	if _, err := NewStream(bytes.NewReader([]byte("NOPE0"))); err == nil {
		t.Fatal("bad header accepted")
	}
}

// TestStreamRefillAcrossPassBoundary: a trace longer than both the
// byte window and the block batch refills each of them many times per
// pass, and a batch ends short at the end of every pass. Every pass
// must still decode the identical sequence.
func TestStreamRefillAcrossPassBoundary(t *testing.T) {
	// Nine and a half batches, spread over more than two byte windows,
	// so neither refill lines up with the end of the pass.
	n := streamBatch*9 + streamBatch/2
	data, want := recordTrace(t, 17, n)
	if len(data) < 2*readWindow {
		t.Fatalf("trace of %d bytes does not span two %d-byte windows", len(data), readWindow)
	}
	s, err := NewStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			if got := s.Next(); got != want[i] {
				t.Fatalf("pass %d block %d: got %+v want %+v", pass, i, got, want[i])
			}
		}
	}
	if s.Loops != 2 {
		t.Fatalf("Loops = %d, want 2", s.Loops)
	}
}

// BenchmarkStreamNext measures the sampled mode's trace decoding per
// block, pass boundaries included; it must not allocate.
func BenchmarkStreamNext(b *testing.B) {
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}, 1)
	w := workload.NewWalker(prog, 5)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		if err := tw.Write(w.Next()); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	s, err := NewStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}
