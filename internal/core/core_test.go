package core

import (
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/noc"
	"shotgun/internal/predecode"
	"shotgun/internal/prefetch"
	"shotgun/internal/program"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// testSetup builds a core with nctx hardware contexts, each walking the
// test program from its own seed.
func testSetup(t testing.TB, mech string, nctx int) (*Core, *uncore.Hierarchy) {
	t.Helper()
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 100, NumKernelFuncs: 24}, 11)
	streams := make([]workload.Stream, nctx)
	for k := range streams {
		streams[k] = workload.NewWalker(prog, 3+uint64(k))
	}
	cfg := uncore.DefaultConfig()
	cfg.Mesh = noc.Config{Rows: 4, Cols: 4, HopCycles: 3, SlotsPerCycle: 2}
	hier := uncore.New(cfg)
	ctx := prefetch.Context{Hier: hier, Dec: predecode.NewDecoder(prog)}
	var engine prefetch.Engine
	switch mech {
	case "none":
		engine = prefetch.NewNone(ctx, 2048)
	case "ideal":
		engine = prefetch.NewIdeal(ctx)
	case "boomerang":
		engine = prefetch.NewBoomerang(ctx, 2048)
	default:
		t.Fatalf("unknown mech %s", mech)
	}
	return New(Config{LoadFrac: 0.2, DataBlocks: 1 << 10, DataZipfS: 0.8}, streams, engine, hier), hier
}

// run advances the core until at least n more instructions have retired,
// skipping each provably idle span (NextEvent/AdvanceIdle) after a real
// tick — the event kernel's per-core loop — and returns the cycles
// consumed.
func run(c *Core, n uint64) uint64 {
	startCycles := c.Stats().Cycles
	target := c.Instructions() + n
	for c.Instructions() < target {
		c.Tick()
		if c.Instructions() >= target {
			// The crossing tick ends the run; skipping the idle span that
			// follows it would charge cycles a per-cycle loop never runs.
			break
		}
		if next := c.NextEvent(); next > c.Now() {
			c.AdvanceIdle(next - c.Now())
		}
	}
	return c.Stats().Cycles - startCycles
}

func TestRunRetiresInstructions(t *testing.T) {
	c, _ := testSetup(t, "none", 1)
	cycles := run(c, 100_000)
	if cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
	s := c.Stats()
	if s.Instructions < 100_000 {
		t.Fatalf("retired %d instructions", s.Instructions)
	}
	ipc := s.IPC()
	if ipc <= 0 || ipc > 3 {
		t.Fatalf("IPC = %v out of (0, 3]", ipc)
	}
}

func TestStallClassificationExhaustive(t *testing.T) {
	c, _ := testSetup(t, "none", 1)
	run(c, 50_000)
	s := c.Stats()
	// Every cycle either retires something or is classified as a stall.
	retireCycles := s.Cycles - s.FrontEndStallCycles - s.BackEndStallCycles
	if retireCycles <= 0 {
		t.Fatalf("no retiring cycles: %+v", s)
	}
	if s.FrontEndStallCycles == 0 {
		t.Fatal("baseline with cold caches must have front-end stalls")
	}
	if s.BackEndStallCycles == 0 {
		t.Fatal("load misses must produce back-end stalls")
	}
}

func TestIdealBeatsBaseline(t *testing.T) {
	base, _ := testSetup(t, "none", 1)
	ideal, _ := testSetup(t, "ideal", 1)
	run(base, 150_000)
	run(ideal, 150_000)
	if ideal.Stats().IPC() <= base.Stats().IPC() {
		t.Fatalf("ideal IPC %.3f not above baseline %.3f",
			ideal.Stats().IPC(), base.Stats().IPC())
	}
	// The ideal front-end eliminates nearly all front-end stalls except
	// redirect bubbles.
	bi := float64(base.Stats().FrontEndStallCycles) / float64(base.Stats().Instructions)
	ii := float64(ideal.Stats().FrontEndStallCycles) / float64(ideal.Stats().Instructions)
	if ii >= bi {
		t.Fatalf("ideal front-end stalls/instr %.4f not below baseline %.4f", ii, bi)
	}
}

func TestMispredictsCharged(t *testing.T) {
	c, _ := testSetup(t, "none", 1)
	run(c, 200_000)
	s := c.Stats()
	if s.CondBranches == 0 || s.Branches == 0 {
		t.Fatal("no branches observed")
	}
	if s.DecodeRedirects == 0 {
		t.Fatal("baseline must take decode redirects on BTB misses")
	}
	if s.DirMispredicts == 0 {
		t.Fatal("TAGE cannot be perfect on this workload")
	}
	// Mispredict rate must be a plausible minority.
	rate := float64(s.DirMispredicts) / float64(s.CondBranches)
	if rate > 0.4 {
		t.Fatalf("mispredict rate %.3f implausibly high", rate)
	}
}

func TestResetStatsAtBoundary(t *testing.T) {
	c, _ := testSetup(t, "none", 1)
	run(c, 30_000)
	c.ResetStats()
	if s := c.Stats(); s.Cycles != 0 || s.Instructions != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
	// Simulation continues seamlessly after a reset.
	run(c, 10_000)
	if c.Stats().Instructions < 10_000 {
		t.Fatal("run after reset broken")
	}
}

func TestBoomerangReducesFrontEndStalls(t *testing.T) {
	base, _ := testSetup(t, "none", 1)
	boom, _ := testSetup(t, "boomerang", 1)
	run(base, 200_000)
	run(boom, 200_000)
	bs := float64(base.Stats().FrontEndStallCycles) / float64(base.Stats().Instructions)
	os := float64(boom.Stats().FrontEndStallCycles) / float64(boom.Stats().Instructions)
	if os >= bs {
		t.Fatalf("Boomerang stalls/instr %.4f not below baseline %.4f", os, bs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	a, _ := testSetup(t, "boomerang", 1)
	b, _ := testSetup(t, "boomerang", 1)
	run(a, 60_000)
	run(b, 60_000)
	if a.Stats() != b.Stats() {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

func TestMPKIHelper(t *testing.T) {
	s := Stats{Instructions: 2000}
	if got := s.MPKI(10); got != 5 {
		t.Fatalf("MPKI = %v", got)
	}
	var zero Stats
	if zero.MPKI(10) != 0 || zero.IPC() != 0 {
		t.Fatal("zero-stats helpers must not divide by zero")
	}
}

// constStream feeds a fixed straight-line block pattern, for surgical
// timing tests.
type constStream struct {
	pc isa.Addr
}

func (s *constStream) Next() isa.BasicBlock {
	bb := isa.BasicBlock{PC: s.pc, NumInstr: 8, Kind: isa.BranchNone}
	s.pc = s.pc.Add(8)
	if s.pc > 0x4000_0000+1<<20 {
		s.pc = 0x4000_0000
	}
	return bb
}

func TestStraightLineCodeNoRedirects(t *testing.T) {
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}, 1)
	cfg := uncore.DefaultConfig()
	cfg.Mesh = noc.Config{Rows: 4, Cols: 4, HopCycles: 3, SlotsPerCycle: 100}
	hier := uncore.New(cfg)
	ctx := prefetch.Context{Hier: hier, Dec: predecode.NewDecoder(prog)}
	c := New(Config{LoadFrac: 0.01, DataBlocks: 64, DataZipfS: 0.8},
		[]workload.Stream{&constStream{pc: 0x4000_0000}}, prefetch.NewIdeal(ctx), hier)
	run(c, 50_000)
	s := c.Stats()
	if s.DecodeRedirects != 0 || s.ExecRedirects != 0 {
		t.Fatalf("straight-line code redirected: %+v", s)
	}
	// With an ideal front-end and almost no loads, IPC approaches the
	// fetch bandwidth bound: 8-instruction blocks at ceil(8/3)=3 cycles
	// per block ~ 2.67 IPC.
	if s.IPC() < 2.0 {
		t.Fatalf("straight-line ideal IPC = %.2f, want >= 2", s.IPC())
	}
}

func BenchmarkCoreTick(b *testing.B) {
	c, _ := testSetup(b, "boomerang", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
	}
}

// contextCounts are the front-end widths the core-level event contract
// is checked at: the classic single-context core and two SMT widths.
var contextCounts = []int{1, 2, 4}

// TestEventSkipMatchesPerCycle pins the core-level event contract: a
// per-cycle tick loop and a loop that skips each idle span through
// NextEvent/AdvanceIdle must land on identical core and hierarchy stats,
// at every context count. This is the single-core seed of the
// scenario-level TestEventKernelMatchesLockstep.
func TestEventSkipMatchesPerCycle(t *testing.T) {
	for _, nctx := range contextCounts {
		for _, mech := range []string{"none", "boomerang", "ideal"} {
			ref, refHier := testSetup(t, mech, nctx)
			evt, evtHier := testSetup(t, mech, nctx)

			const target = 60_000
			for ref.Instructions() < target {
				ref.Tick()
			}
			run(evt, target)

			if ref.Stats() != evt.Stats() {
				t.Fatalf("%s/%d contexts: event skipping drifted from per-cycle ticking:\nper-cycle: %+v\nevent:     %+v",
					mech, nctx, ref.Stats(), evt.Stats())
			}
			if refHier.Stats() != evtHier.Stats() {
				t.Fatalf("%s/%d contexts: hierarchy stats drifted:\nper-cycle: %+v\nevent:     %+v",
					mech, nctx, refHier.Stats(), evtHier.Stats())
			}
		}
	}
}

// TestNextEventSkipsIdleSpans proves the skip is real: driving the core
// through NextEvent/AdvanceIdle reaches the instruction target with
// strictly fewer ticks than elapsed cycles (the difference is the idle
// cycles bulk-accounted by AdvanceIdle).
func TestNextEventSkipsIdleSpans(t *testing.T) {
	c, _ := testSetup(t, "none", 1)
	ticks := uint64(0)
	for c.Instructions() < 50_000 {
		c.Tick()
		ticks++
		if next := c.NextEvent(); next > c.Now() {
			c.AdvanceIdle(next - c.Now())
		}
	}
	s := c.Stats()
	if ticks >= s.Cycles {
		t.Fatalf("no idle cycles skipped: %d ticks for %d cycles", ticks, s.Cycles)
	}
	t.Logf("ticks=%d cycles=%d (%.1f%% skipped)", ticks, s.Cycles,
		100*float64(s.Cycles-ticks)/float64(s.Cycles))
}

// TestNextEventNeverLate asserts the deadline contract directly: from
// any reachable state, every cycle strictly before NextEvent is idle —
// ticking it changes nothing but the stall counters and the clock, and
// leaves the hierarchy untouched.
func TestNextEventNeverLate(t *testing.T) {
	for _, nctx := range contextCounts {
		c, hier := testSetup(t, "boomerang", nctx)
		for i := 0; i < 20_000; i++ {
			next := c.NextEvent()
			if next < c.Now() {
				t.Fatalf("%d contexts: NextEvent %d is in the past (now %d)", nctx, next, c.Now())
			}
			if next > c.Now() {
				// The span must be idle: tick one of its cycles and check
				// only the idle-accounting fields moved.
				before, hierBefore := c.Stats(), hier.Stats()
				instr := before.Instructions
				c.Tick()
				after, hierAfter := c.Stats(), hier.Stats()
				if hierBefore != hierAfter {
					t.Fatalf("%d contexts, cycle %d: hierarchy mutated inside idle span ending %d", nctx, c.Now()-1, next)
				}
				if after.Instructions != instr {
					t.Fatalf("%d contexts, cycle %d: instructions retired inside idle span ending %d", nctx, c.Now()-1, next)
				}
				before.Cycles = after.Cycles
				before.FetchStallCycles = after.FetchStallCycles
				before.FrontEndStallCycles = after.FrontEndStallCycles
				before.BackEndStallCycles = after.BackEndStallCycles
				if before != after {
					t.Fatalf("%d contexts, cycle %d: non-idle mutation inside idle span ending %d:\nbefore: %+v\nafter:  %+v",
						nctx, c.Now()-1, next, before, after)
				}
			} else {
				c.Tick()
			}
		}
	}
}
