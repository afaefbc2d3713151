// Mechanism-conformance suite: every engine behind the Engine interface
// must honour the same contract — Warm trains predictor state without
// touching timing statistics, a fresh engine is deterministic
// bit-for-bit, ResetStats re-arms the counters without corrupting the
// trained state, and the per-block hot path does not allocate. New
// mechanisms get these guarantees for free by appearing in
// conformanceEngines; a mechanism that cannot pass them does not belong
// behind the interface.
package prefetch

import (
	"testing"

	"shotgun/internal/btb"
	"shotgun/internal/cache"
	"shotgun/internal/footprint"
	"shotgun/internal/isa"
	"shotgun/internal/noc"
	"shotgun/internal/predecode"
	"shotgun/internal/program"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

// engineCase names one mechanism and how to build it against a context.
type engineCase struct {
	name string
	mk   func(Context) Engine
}

// conformanceEngines lists every mechanism the suite checks — all of
// them, including the region-mode Shotgun variants.
func conformanceEngines() []engineCase {
	return []engineCase{
		{"none", func(ctx Context) Engine { return NewNone(ctx, 2048) }},
		{"fdip", func(ctx Context) Engine { return NewFDIP(ctx, 2048) }},
		{"rdip", func(ctx Context) Engine { return NewRDIP(ctx, 2048) }},
		{"delta", func(ctx Context) Engine { return NewDelta(ctx, 2048) }},
		{"boomerang", func(ctx Context) Engine { return NewBoomerang(ctx, 2048) }},
		{"confluence", func(ctx Context) Engine { return NewConfluence(ctx) }},
		{"shotgun", func(ctx Context) Engine { return shotgunEngine(ctx) }},
		{"shotgun-5blocks", func(ctx Context) Engine {
			return NewShotgun(ctx, ShotgunConfig{
				Sizes: btb.MustShotgunSizesForBudget(2048), Layout: footprint.Layout8, Mode: RegionFiveBlocks,
			})
		}},
		{"ideal", func(ctx Context) Engine { return NewIdeal(ctx) }},
	}
}

// conformanceProgram is the block-stream source every conformance check
// replays: small enough that its instruction footprint settles into the
// caches, large enough to exercise calls, returns and loops.
func conformanceProgram() *program.Program {
	return program.MustGenerate(program.GenParams{NumAppFuncs: 12, NumKernelFuncs: 4}, 11)
}

// conformanceContext builds a private hierarchy for one engine under
// test, mirroring testContext but from an explicit program.
func conformanceContext(prog *program.Program) Context {
	cfg := uncore.DefaultConfig()
	cfg.Mesh = noc.Config{Rows: 4, Cols: 4, HopCycles: 3, SlotsPerCycle: 100}
	return Context{Hier: uncore.New(cfg), Dec: predecode.NewDecoder(prog)}
}

// conformanceStream captures n dynamic blocks from the program walker so
// every replay sees the identical sequence.
func conformanceStream(prog *program.Program, n int) []isa.BasicBlock {
	w := workload.NewWalker(prog, 23)
	blocks := make([]isa.BasicBlock, n)
	for i := range blocks {
		blocks[i] = w.Next()
	}
	return blocks
}

// drive replays the captured stream against an engine the way the core
// does: one Evaluate per block (with a RAS for return blocks), the
// retire hook, the fetch observation, and arrival polling, each block
// one cycle apart. ras is reusable scratch so the replay loop itself
// stays allocation-free for the hot-path check.
func drive(e Engine, ctx Context, blocks []isa.BasicBlock, start uint64, ras []isa.Addr) uint64 {
	ras = ras[:0]
	now := start
	for _, bb := range blocks {
		if arr := ctx.Hier.PollArrivals(now); len(arr) > 0 {
			e.OnArrival(now, arr)
		}
		var rasCall isa.Addr
		var rasOK bool
		if bb.Kind == isa.BranchRet && len(ras) > 0 {
			rasCall = ras[len(ras)-1]
			ras = ras[:len(ras)-1]
			rasOK = true
		}
		e.Evaluate(now, bb, rasCall, rasOK)
		if bb.Kind == isa.BranchCall || bb.Kind == isa.BranchTrap {
			ras = append(ras, bb.PC)
		}
		first, last := bb.BlockSpan()
		for blk := first; blk <= last; blk += isa.BlockBytes {
			_, src := ctx.Hier.FetchBlock(now, blk)
			e.OnFetch(now, blk, src)
			if src == uncore.SrcLLC || src == uncore.SrcMemory {
				e.OnDemandMiss(now, blk)
			}
		}
		e.OnRetire(bb)
		now++
	}
	return now
}

// fingerprint is the bit-comparable outcome of a replay.
type fingerprint struct {
	btbMisses uint64
	hier      uncore.Stats
	l1i       cache.Stats
}

func snapshot(e Engine, ctx Context) fingerprint {
	return fingerprint{
		btbMisses: e.BTBMisses(),
		hier:      ctx.Hier.Stats(),
		l1i:       ctx.Hier.L1I.Stats(),
	}
}

// TestConformanceDeterministicReplay: two fresh engines fed the
// identical stream must end bit-identical — counters, hierarchy stats
// and L1-I behaviour. Any hidden nondeterminism (map iteration, time,
// random tie-breaks) breaks simulation reproducibility.
func TestConformanceDeterministicReplay(t *testing.T) {
	prog := conformanceProgram()
	blocks := conformanceStream(prog, 4000)
	for _, tc := range conformanceEngines() {
		t.Run(tc.name, func(t *testing.T) {
			var fps [2]fingerprint
			for i := range fps {
				ctx := conformanceContext(prog)
				e := tc.mk(ctx)
				drive(e, ctx, blocks, 0, nil)
				fps[i] = snapshot(e, ctx)
			}
			if fps[0] != fps[1] {
				t.Fatalf("replay diverged:\n  run 1: %+v\n  run 2: %+v", fps[0], fps[1])
			}
		})
	}
}

// TestConformanceWarmLeavesTimingAlone: Warm is the functional-warming
// hook — it may train BTBs, histories and footprints, but it must not
// issue hierarchy traffic, count BTB misses, or leave fills in flight.
func TestConformanceWarmLeavesTimingAlone(t *testing.T) {
	prog := conformanceProgram()
	blocks := conformanceStream(prog, 4000)
	for _, tc := range conformanceEngines() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := conformanceContext(prog)
			e := tc.mk(ctx)
			before := snapshot(e, ctx)
			for _, bb := range blocks {
				e.Warm(bb)
			}
			after := snapshot(e, ctx)
			// Cache occupancy (inserts/evictions) is functional state a
			// warming pass may legitimately build; the timing outcomes —
			// hits, misses, fills, prefetch traffic, BTB misses — must
			// stay untouched.
			before.l1i.Inserts, before.l1i.Evictions = 0, 0
			after.l1i.Inserts, after.l1i.Evictions = 0, 0
			if before != after {
				t.Fatalf("Warm touched timing state:\n  before: %+v\n  after:  %+v", before, after)
			}
			if n := ctx.Hier.InflightCount(); n != 0 {
				t.Fatalf("Warm left %d fills in flight", n)
			}
		})
	}
}

// TestConformanceResetRerunStability: ResetStats at a warmup boundary
// must re-arm the counters without corrupting trained state — two fresh
// engines that warm, reset and measure over the identical streams must
// produce bit-identical measured counters.
func TestConformanceResetRerunStability(t *testing.T) {
	prog := conformanceProgram()
	warm := conformanceStream(prog, 3000)
	measure := conformanceStream(prog, 2000)
	for _, tc := range conformanceEngines() {
		t.Run(tc.name, func(t *testing.T) {
			var fps [2]fingerprint
			for i := range fps {
				ctx := conformanceContext(prog)
				e := tc.mk(ctx)
				now := drive(e, ctx, warm, 0, nil)
				e.ResetStats()
				ctx.Hier.ResetStats()
				if e.BTBMisses() != 0 {
					t.Fatalf("ResetStats left BTBMisses = %d", e.BTBMisses())
				}
				drive(e, ctx, measure, now, nil)
				fps[i] = snapshot(e, ctx)
			}
			if fps[0] != fps[1] {
				t.Fatalf("post-reset replay diverged:\n  run 1: %+v\n  run 2: %+v", fps[0], fps[1])
			}
		})
	}
}

// TestConformanceHotPathAllocs: once the engine's tables and the caches
// are warm, the per-block hot path — Evaluate, OnFetch, OnRetire, Warm —
// must not allocate. Steady-state allocation would dominate a
// multi-million-block run's profile.
func TestConformanceHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short noise")
	}
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 8, NumKernelFuncs: 2}, 11)
	blocks := conformanceStream(prog, 2000)
	for _, tc := range conformanceEngines() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := conformanceContext(prog)
			e := tc.mk(ctx)
			// Warm until the footprint is resident and every structure has
			// seen every block.
			now := uint64(0)
			ras := make([]isa.Addr, 0, 256)
			for i := 0; i < 3; i++ {
				now = drive(e, ctx, blocks, now, ras)
			}
			// Drain stragglers so the measured loop sees no new arrivals.
			now += 10_000
			ctx.Hier.PollArrivals(now)
			// One run of 20 passes: AllocsPerRun truncates its mean per
			// run, so only a single run counts every allocation.
			allocs := testing.AllocsPerRun(1, func() {
				for range 20 {
					now = drive(e, ctx, blocks, now, ras)
					for _, bb := range blocks {
						e.Warm(bb)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("20 steady-state replays allocate %.0f times", allocs)
			}
		})
	}
}

// TestConformanceWarmTrainsLikeEvaluate: the engines whose BTB is
// trained at decode time (or by Boomerang's reactive fill) must leave
// the same BTB after a stream replayed through Warm alone as after the
// same stream replayed through Evaluate alone. A 256-entry BTB makes
// the replay evict, so replacement order is compared too. Shotgun and
// Ideal are left out: Shotgun's Evaluate predecodes region blocks that
// its Warm skips on purpose, and Ideal has no BTB.
func TestConformanceWarmTrainsLikeEvaluate(t *testing.T) {
	const entries = 256
	cases := []struct {
		name string
		mk   func(Context) (Engine, *decodeBTB)
	}{
		{"none", func(ctx Context) (Engine, *decodeBTB) { e := NewNone(ctx, entries); return e, &e.decodeBTB }},
		{"fdip", func(ctx Context) (Engine, *decodeBTB) { e := NewFDIP(ctx, entries); return e, &e.decodeBTB }},
		{"rdip", func(ctx Context) (Engine, *decodeBTB) { e := NewRDIP(ctx, entries); return e, &e.decodeBTB }},
		{"delta", func(ctx Context) (Engine, *decodeBTB) { e := NewDelta(ctx, entries); return e, &e.decodeBTB }},
		{"boomerang", func(ctx Context) (Engine, *decodeBTB) { e := NewBoomerang(ctx, entries); return e, &e.decodeBTB }},
		{"confluence", func(ctx Context) (Engine, *decodeBTB) {
			e := NewConfluence(ctx)
			e.decodeBTB = newDecodeBTB(entries)
			return e, &e.decodeBTB
		}},
	}
	prog := conformanceProgram()
	blocks := conformanceStream(prog, 4000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evalEngine, evalBTB := tc.mk(conformanceContext(prog))
			warmEngine, warmBTB := tc.mk(conformanceContext(prog))
			for i, bb := range blocks {
				evalEngine.Evaluate(uint64(i), bb, 0, false)
				warmEngine.Warm(bb)
			}
			evicted := 0
			for _, bb := range blocks {
				ee, eok := evalBTB.btb.Peek(bb.PC)
				we, wok := warmBTB.btb.Peek(bb.PC)
				if ee != we || eok != wok {
					t.Fatalf("block %v: Evaluate left (%+v, %v), Warm left (%+v, %v)", bb.PC, ee, eok, we, wok)
				}
				if bb.Kind != isa.BranchNone && !eok {
					evicted++
				}
			}
			if evicted == 0 {
				t.Fatalf("no branch was evicted from the %d-entry BTB; the replay proves nothing about replacement", entries)
			}
			if b, ok := evalEngine.(*Boomerang); ok {
				if n, m := b.pbuf.Len(), warmEngine.(*Boomerang).pbuf.Len(); n != m {
					t.Fatalf("prefetch buffer holds %d entries after Evaluate, %d after Warm", n, m)
				}
			}
		})
	}
}
