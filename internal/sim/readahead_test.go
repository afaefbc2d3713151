package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"shotgun/internal/isa"
	"shotgun/internal/workload"
)

// aheadCfg is a sampled schedule of 16 periods of 4096 blocks, so one
// run reads its stream across many read-ahead chunks, with a bounded
// warming window so the skim path runs too.
func aheadCfg() Config {
	cfg := tinyCfg("Nutch", Shotgun)
	cfg.Sampling = &Sampling{
		PeriodBlocks:   4096,
		WarmupBlocks:   256,
		UnitBlocks:     256,
		FuncWarmBlocks: 1024,
		Units:          16,
	}
	return cfg
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// probeStream wraps a stream, counting its Next calls and noting
// whether they ran on the goroutine that built it or on another.
// panicAt > 0 makes that call panic instead.
type probeStream struct {
	s                 workload.Stream
	owner             uint64
	calls             atomic.Int64
	onOwner, offOwner atomic.Bool
	panicAt           int64
}

func newProbe(s workload.Stream) *probeStream {
	return &probeStream{s: s, owner: goid()}
}

func (p *probeStream) Next() isa.BasicBlock {
	n := p.calls.Add(1)
	if goid() == p.owner {
		p.onOwner.Store(true)
	} else {
		p.offOwner.Store(true)
	}
	if n == p.panicAt {
		panic("probe: source failed")
	}
	return p.s.Next()
}

func nutchWalker() workload.Stream {
	prof := workload.MustGet("Nutch")
	return workload.NewWalkerConfig(prof.Program(), prof.WalkSeed, prof.Walk)
}

// settled waits until the goroutine count is back to base; a joined
// goroutine may still be counted for the moment it takes to exit.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// quiet checks that nobody reads the stream once the call returned:
// the producer was stopped and joined, not merely told to stop.
func quiet(t *testing.T, p *probeStream) {
	t.Helper()
	n := p.calls.Load()
	time.Sleep(20 * time.Millisecond)
	if m := p.calls.Load(); m != n {
		t.Fatalf("the stream was read %d more times after the call returned", m-n)
	}
}

// TestReadAheadSequence: the blocks served across chunk boundaries are
// the source's, in order, and the source runs at most the buffered
// chunks ahead of the consumer.
func TestReadAheadSequence(t *testing.T) {
	want := nutchWalker()
	probe := newProbe(nutchWalker())
	r := newReadAhead(probe)
	r.start()
	defer r.stop()
	for i := 0; i < 2*readAheadDepth*readAheadChunk+7; i++ {
		if got, exp := r.Next(), want.Next(); got != exp {
			t.Fatalf("block %d: got %+v, want %+v", i, got, exp)
		}
		if ahead := probe.calls.Load() - int64(i+1); ahead > readAheadDepth*readAheadChunk {
			t.Fatalf("block %d: source read %d blocks ahead", i, ahead)
		}
	}
	if probe.onOwner.Load() {
		t.Fatal("the source was read on the consumer's goroutine")
	}
}

// TestReadAheadSampledStreamMatchesRun: a sampled RunStream over the
// profile's own walker is the sampled Run, bit for bit, and its stream
// is read on another goroutine only.
func TestReadAheadSampledStreamMatchesRun(t *testing.T) {
	cfg := aheadCfg()
	probe := newProbe(nutchWalker())
	got, err := RunStream(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	want := MustRun(cfg)
	if got.Core != want.Core || got.Hier != want.Hier || *got.Sampled != *want.Sampled {
		t.Fatalf("sampled RunStream drifted from sampled Run:\n%+v\n%+v", got, want)
	}
	if probe.onOwner.Load() {
		t.Fatal("a sampled run read its stream on the caller's goroutine")
	}
	if probe.calls.Load() < int64(cfg.Sampling.PeriodBlocks)*int64(cfg.Sampling.Units) {
		t.Fatalf("stream read %d times, fewer than the schedule's blocks", probe.calls.Load())
	}
}

// TestReadAheadJoined: the producer is gone when Run and RunStream
// return, whether the run succeeded, failed to build, or unwound from
// a panic raised in the consumer while the producer was running.
func TestReadAheadJoined(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		base := runtime.NumGoroutine()
		probe := newProbe(nutchWalker())
		if _, err := RunStream(aheadCfg(), probe); err != nil {
			t.Fatal(err)
		}
		quiet(t, probe)
		settled(t, base)
		MustRun(aheadCfg())
		settled(t, base)
	})

	t.Run("build error", func(t *testing.T) {
		base := runtime.NumGoroutine()
		cfg := aheadCfg()
		cfg.Sampling.UnitBlocks = cfg.Sampling.PeriodBlocks // W+U > P
		probe := newProbe(nutchWalker())
		if _, err := RunStream(cfg, probe); err == nil {
			t.Fatal("an invalid schedule ran")
		}
		if n := probe.calls.Load(); n != 0 {
			t.Fatalf("a run that failed to build read its stream %d times", n)
		}
		settled(t, base)
	})

	// No block a stream can hand the core makes it panic, so the
	// consumer's panic is raised here, mid-stream, with the producer
	// still filling chunks; stop must join it on the way out.
	t.Run("consumer panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		probe := newProbe(nutchWalker())
		r := newReadAhead(probe)
		func() {
			defer func() {
				if v := recover(); v != "consumer failed" {
					t.Errorf("recovered %v", v)
				}
			}()
			r.start()
			defer r.stop()
			for i := 0; i < readAheadChunk+1; i++ {
				r.Next()
			}
			panic("consumer failed")
		}()
		quiet(t, probe)
		settled(t, base)
	})
}

// TestReadAheadSourcePanic: a panic in the stream's Next, which runs on
// the producer goroutine, is raised again in the caller of RunStream
// with the same value, and the producer is gone by then.
func TestReadAheadSourcePanic(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, at := range []int64{1, readAheadChunk, 3*readAheadChunk + 5} {
		probe := newProbe(nutchWalker())
		probe.panicAt = at
		func() {
			defer func() {
				if v := recover(); v != "probe: source failed" {
					t.Errorf("panic at block %d: recovered %v, want the source's panic", at, v)
				}
			}()
			RunStream(aheadCfg(), probe)
			t.Errorf("panic at block %d: RunStream returned", at)
		}()
		quiet(t, probe)
		settled(t, base)
	}
}

// TestReadAheadExactRunsInline: an exact run reads its stream on the
// caller's goroutine and starts no other.
func TestReadAheadExactRunsInline(t *testing.T) {
	base := runtime.NumGoroutine()
	probe := newProbe(nutchWalker())
	var most atomic.Int64
	counting := countingStream{probe, &most}
	if _, err := RunStream(tinyCfg("Nutch", Shotgun), counting); err != nil {
		t.Fatal(err)
	}
	if probe.calls.Load() == 0 || probe.offOwner.Load() {
		t.Fatal("the exact run did not read its stream on the caller's goroutine")
	}
	if n := most.Load(); n > int64(base) {
		t.Fatalf("%d goroutines ran during an exact run, baseline %d", n, base)
	}
}

// countingStream records the most goroutines alive at any Next call.
type countingStream struct {
	s    workload.Stream
	most *atomic.Int64
}

func (c countingStream) Next() isa.BasicBlock {
	if n := int64(runtime.NumGoroutine()); n > c.most.Load() {
		c.most.Store(n)
	}
	return c.s.Next()
}
