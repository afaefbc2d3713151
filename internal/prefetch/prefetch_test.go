package prefetch

import (
	"slices"
	"testing"

	"shotgun/internal/btb"
	"shotgun/internal/footprint"
	"shotgun/internal/isa"
	"shotgun/internal/noc"
	"shotgun/internal/predecode"
	"shotgun/internal/program"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
)

func testContext(t testing.TB) (Context, *program.Program) {
	t.Helper()
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 80, NumKernelFuncs: 20}, 7)
	cfg := uncore.DefaultConfig()
	cfg.Mesh = noc.Config{Rows: 4, Cols: 4, HopCycles: 3, SlotsPerCycle: 100}
	return Context{Hier: uncore.New(cfg), Dec: predecode.NewDecoder(prog)}, prog
}

// findBlock locates a static block of the given kind.
func findBlock(prog *program.Program, kind isa.BranchKind) isa.BasicBlock {
	for _, f := range prog.Funcs {
		for bi, sb := range f.Blocks {
			if sb.Kind != kind {
				continue
			}
			bb := isa.BasicBlock{PC: f.BlockPC(bi), NumInstr: int(sb.NumInstr), Kind: kind, Taken: true}
			switch kind {
			case isa.BranchCall, isa.BranchTrap:
				bb.Target = prog.Func(sb.Callee).Entry()
			case isa.BranchCond, isa.BranchJump:
				bb.Target = f.BlockPC(int(sb.TargetIdx))
			default:
				bb.Target = f.Entry() // arbitrary non-zero
			}
			return bb
		}
	}
	panic("kind not found")
}

func TestNoneDecodeRedirectOnTakenMiss(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewNone(ctx, 2048)
	bb := findBlock(prog, isa.BranchCall)

	ev := e.Evaluate(0, bb, 0, false)
	if ev.BTBHit || !ev.DecodeRedirect {
		t.Fatalf("first sight of taken branch: %+v", ev)
	}
	if e.BTBMisses() != 1 {
		t.Fatalf("misses = %d", e.BTBMisses())
	}
	// Decode-time training: the second encounter hits.
	ev = e.Evaluate(1, bb, 0, false)
	if !ev.BTBHit || ev.DecodeRedirect {
		t.Fatalf("trained branch still missing: %+v", ev)
	}
}

func TestNoneNotTakenMissNoRedirect(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewNone(ctx, 2048)
	bb := findBlock(prog, isa.BranchCond)
	bb.Taken = false
	bb.Target = 0
	ev := e.Evaluate(0, bb, 0, false)
	if ev.DecodeRedirect {
		t.Fatal("not-taken miss must not redirect")
	}
	if e.BTBMisses() != 1 {
		t.Fatal("miss not counted")
	}
}

func TestNoneIssuesNoPrefetches(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewNone(ctx, 2048)
	for i, f := range prog.Funcs {
		if i > 20 {
			break
		}
		bb := isa.BasicBlock{PC: f.Entry(), NumInstr: 4, Kind: isa.BranchNone}
		e.Evaluate(uint64(i), bb, 0, false)
	}
	if n := ctx.Hier.Stats().PrefetchesIssued; n != 0 {
		t.Fatalf("baseline issued %d prefetches", n)
	}
}

func TestFDIPPrefetchesAndSpeculates(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewFDIP(ctx, 2048)
	bb := findBlock(prog, isa.BranchCall)
	ev := e.Evaluate(0, bb, 0, false)
	if !ev.DecodeRedirect {
		t.Fatal("FDIP miss on taken branch must decode-redirect")
	}
	st := ctx.Hier.Stats()
	if st.PrefetchesIssued == 0 {
		t.Fatal("FDIP issued no prefetches")
	}
	if e.WrongPathPrefetches == 0 {
		t.Fatal("FDIP must chase the straight-line wrong path on a miss")
	}
}

func TestBoomerangResolvesWithoutRedirect(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewBoomerang(ctx, 2048)
	bb := findBlock(prog, isa.BranchCall)

	ev := e.Evaluate(100, bb, 0, false)
	if !ev.BTBHit || ev.DecodeRedirect {
		t.Fatalf("Boomerang must resolve, not redirect: %+v", ev)
	}
	if ev.StallUntil <= 100 {
		t.Fatalf("resolution must stall the runahead: StallUntil=%d", ev.StallUntil)
	}
	if e.BTBMisses() != 1 || e.Resolutions != 1 {
		t.Fatalf("miss/resolution counts: %d/%d", e.BTBMisses(), e.Resolutions)
	}
	// Resolved: next encounter hits without stalling.
	ev = e.Evaluate(ev.StallUntil+1, bb, 0, false)
	if !ev.BTBHit || ev.StallUntil != 0 {
		t.Fatalf("resolved branch still stalls: %+v", ev)
	}
}

func TestBoomerangCheapResolutionWhenResident(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewBoomerang(ctx, 2048)
	bb := findBlock(prog, isa.BranchCall)
	// Pre-install the branch's block in the L1-I: resolution is an L1 probe.
	ctx.Hier.L1I.Insert(bb.BranchPC().Block())
	ev := e.Evaluate(100, bb, 0, false)
	wantMax := uint64(100 + ctx.Hier.Config().L1LatencyCycles)
	if ev.StallUntil > wantMax {
		t.Fatalf("resident resolution cost %d, want <= %d", ev.StallUntil, wantMax)
	}
}

func TestBoomerangPrefetchBufferPromotion(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewBoomerang(ctx, 2048)
	// Find two branch-ending blocks sharing one cache block.
	var a, b isa.BasicBlock
	found := false
	for _, f := range prog.Funcs {
		byBlock := map[isa.Addr][]isa.BasicBlock{}
		for bi, sb := range f.Blocks {
			if sb.Kind == isa.BranchNone {
				continue
			}
			bb := isa.BasicBlock{PC: f.BlockPC(bi), NumInstr: int(sb.NumInstr), Kind: sb.Kind, Taken: sb.Kind.IsUnconditional()}
			if sb.Kind == isa.BranchCond || sb.Kind == isa.BranchJump {
				bb.Target = f.BlockPC(int(sb.TargetIdx))
			} else if sb.Kind == isa.BranchCall || sb.Kind == isa.BranchTrap {
				bb.Target = 0x9000
			} else {
				bb.Target = 0x9000
			}
			cb := bb.BranchPC().Block()
			byBlock[cb] = append(byBlock[cb], bb)
			if len(byBlock[cb]) == 2 {
				a, b = byBlock[cb][0], byBlock[cb][1]
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no cache block with two branches in this program")
	}
	// Resolving a's miss predecodes the block; b lands in the buffer.
	e.Evaluate(0, a, 0, false)
	ev := e.Evaluate(1000, b, 0, false)
	if !ev.BTBHit || ev.StallUntil != 0 {
		t.Fatalf("buffered branch should promote stall-free: %+v", ev)
	}
	if e.BTBMisses() != 1 {
		t.Fatalf("buffer promotion must not count as a miss: %d", e.BTBMisses())
	}
}

func shotgunEngine(ctx Context) *Shotgun {
	return NewShotgun(ctx, ShotgunConfig{
		Sizes:  btb.MustShotgunSizesForBudget(2048),
		Layout: footprint.Layout8,
		Mode:   RegionVector,
	})
}

func TestShotgunFootprintDrivesPrefetch(t *testing.T) {
	ctx, prog := testContext(t)
	e := shotgunEngine(ctx)
	call := findBlock(prog, isa.BranchCall)

	// Train: resolve the call once so it sits in the U-BTB.
	e.Evaluate(0, call, 0, false)
	// Record a footprint via the retire stream: region touches target+2.
	e.OnRetire(call)
	target := call.Target
	e.OnRetire(isa.BasicBlock{PC: target, NumInstr: 4, Kind: isa.BranchCond, Taken: true,
		Target: target + 2*isa.BlockBytes})
	e.OnRetire(isa.BasicBlock{PC: target + 2*isa.BlockBytes, NumInstr: 4, Kind: isa.BranchJump, Taken: true,
		Target: target})

	before := ctx.Hier.Stats().PrefetchesIssued + ctx.Hier.Stats().PrefetchesRedundant
	ev := e.Evaluate(5000, call, 0, false)
	if !ev.BTBHit {
		t.Fatalf("trained call misses: %+v", ev)
	}
	after := ctx.Hier.Stats().PrefetchesIssued + ctx.Hier.Stats().PrefetchesRedundant
	// Own block(s) + target block + footprint block at +2.
	if after-before < 3 {
		t.Fatalf("footprint prefetch missing: %d probes", after-before)
	}
	if e.RegionPrefetches == 0 {
		t.Fatal("region prefetches not counted")
	}
}

func TestShotgunReturnFootprintViaRAS(t *testing.T) {
	ctx, prog := testContext(t)
	e := shotgunEngine(ctx)
	call := findBlock(prog, isa.BranchCall)
	e.Evaluate(0, call, 0, false) // U-BTB entry for the call

	// Retire stream: call -> callee ret -> fall-through region that
	// touches fallthrough+1, closed by a jump.
	ret := isa.BasicBlock{PC: call.Target, NumInstr: 2, Kind: isa.BranchRet, Taken: true,
		Target: call.FallThrough()}
	e.OnRetire(call)
	e.OnRetire(ret)
	e.OnRetire(isa.BasicBlock{PC: call.FallThrough(), NumInstr: 16, Kind: isa.BranchNone})
	e.OnRetire(isa.BasicBlock{PC: call.FallThrough().Add(16), NumInstr: 4, Kind: isa.BranchJump,
		Taken: true, Target: call.Target})

	v, ok := e.org.ReadReturnFootprint(call.PC)
	if !ok {
		t.Fatal("return footprint not stored with the call")
	}
	if v == 0 {
		t.Fatal("return footprint empty")
	}

	// A RIB hit for the return should read that footprint through the
	// RAS-supplied call block and prefetch the region. Install the RIB
	// entry directly (the synthetic return is not part of the program,
	// so the reactive decoder cannot produce it).
	e.org.Insert(ret.PC, btb.Entry{NumInstr: uint8(ret.NumInstr), Kind: isa.BranchRet})
	before := e.RegionPrefetches
	ev := e.Evaluate(20000, ret, call.PC, true)
	if !ev.BTBHit {
		t.Fatalf("RIB miss after fill: %+v", ev)
	}
	if e.RegionPrefetches == before {
		t.Fatal("return-region footprint did not drive prefetches")
	}
}

func TestShotgunProactiveCBTBFill(t *testing.T) {
	ctx, prog := testContext(t)
	e := shotgunEngine(ctx)
	// Find a conditional branch; deliver its cache block as an arrival.
	cond := findBlock(prog, isa.BranchCond)
	e.OnArrival(0, []uncore.Arrival{{Block: cond.BranchPC().Block(), Ready: 0}})
	ev := e.Evaluate(1, cond, 0, false)
	if !ev.BTBHit {
		t.Fatal("predecoded conditional missing from C-BTB")
	}
	if e.BTBMisses() != 0 {
		t.Fatal("proactively filled branch counted as miss")
	}
}

func TestShotgunVariants(t *testing.T) {
	ctx, prog := testContext(t)
	call := findBlock(prog, isa.BranchCall)
	for _, mode := range []RegionMode{RegionNone, RegionEntire, RegionFiveBlocks} {
		layout := footprint.Layout8
		if mode == RegionEntire {
			layout = footprint.Layout32
		}
		e := NewShotgun(ctx, ShotgunConfig{
			Sizes: btb.MustShotgunSizesForBudget(2048), Layout: layout, Mode: mode,
		})
		e.Evaluate(0, call, 0, false)
		before := e.RegionPrefetches
		e.Evaluate(10000, call, 0, false)
		switch mode {
		case RegionNone:
			if e.RegionPrefetches != before {
				t.Fatalf("%v issued region prefetches", mode)
			}
		case RegionFiveBlocks:
			if e.RegionPrefetches-before != 4 {
				t.Fatalf("5-blocks issued %d region probes, want 4", e.RegionPrefetches-before)
			}
		}
	}
}

func TestConfluenceStreamReplay(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewConfluence(ctx)

	// Record a stream A,B,C,D... via the retire hook, over the program's
	// first 64 code blocks in address order (blocks outside its code have
	// no slot, so they are never recorded).
	var stream []isa.Addr
	for _, f := range prog.Funcs {
		first, last := f.BlockSpan()
		for n := first; n <= last; n++ {
			stream = append(stream, isa.Addr(n*isa.BlockBytes))
		}
	}
	slices.Sort(stream)
	stream = slices.Compact(stream)[:64]
	for _, blk := range stream {
		e.OnRetire(isa.BasicBlock{PC: blk, NumInstr: 16, Kind: isa.BranchNone})
	}
	// A miss on block 3 must restart the stream and prefetch successors.
	before := ctx.Hier.Stats().PrefetchesIssued
	e.OnDemandMiss(1000, stream[3])
	after := ctx.Hier.Stats().PrefetchesIssued
	if e.Restarts != 1 {
		t.Fatalf("restarts = %d", e.Restarts)
	}
	if after-before == 0 {
		t.Fatal("restart issued no prefetches")
	}
	// Fetching along the stream advances it.
	e.OnFetch(2000, stream[4], uncore.SrcL1)
	if e.Matches == 0 {
		t.Fatal("stream did not advance on matching fetch")
	}
}

func TestConfluenceUnknownMissDeactivates(t *testing.T) {
	ctx, _ := testContext(t)
	e := NewConfluence(ctx)
	e.OnDemandMiss(0, 0xdeadbeef&^63)
	if e.Restarts != 0 {
		t.Fatal("unknown block must not restart a stream")
	}
}

func TestIdealNeverMisses(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewIdeal(ctx)
	bb := findBlock(prog, isa.BranchCall)
	ev := e.Evaluate(0, bb, 0, false)
	if !ev.BTBHit || ev.DecodeRedirect || ev.StallUntil != 0 {
		t.Fatalf("ideal evaluation: %+v", ev)
	}
	for _, blk := range bb.Blocks() {
		if !ctx.Hier.L1I.Contains(blk) {
			t.Fatal("ideal did not install block")
		}
	}
	if e.BTBMisses() != 0 {
		t.Fatal("ideal counted a miss")
	}
}

func TestEnginesResetStats(t *testing.T) {
	ctx, prog := testContext(t)
	bb := findBlock(prog, isa.BranchCall)
	engines := []Engine{
		NewNone(ctx, 2048), NewFDIP(ctx, 2048), NewRDIP(ctx, 2048), NewDelta(ctx, 2048),
		NewBoomerang(ctx, 2048), shotgunEngine(ctx), NewConfluence(ctx), NewIdeal(ctx),
	}
	for _, e := range engines {
		e.Evaluate(0, bb, 0, false)
		e.ResetStats()
		if e.BTBMisses() != 0 {
			t.Fatalf("%T: misses not reset", e)
		}
	}
}

func TestRDIPContextPrefetch(t *testing.T) {
	ctx, prog := testContext(t)
	e := NewRDIP(ctx, 2048)
	call := findBlock(prog, isa.BranchCall)

	// First pass through the context: record misses under it.
	e.Evaluate(0, call, 0, false)
	e.OnDemandMiss(1, 0x123000)
	e.OnDemandMiss(2, 0x123040)
	// Returning closes the context; re-entering the same context later
	// must prefetch the recorded blocks.
	ret := isa.BasicBlock{PC: call.Target, NumInstr: 2, Kind: isa.BranchRet, Taken: true, Target: call.FallThrough()}
	e.Evaluate(3, ret, 0, false)
	before := ctx.Hier.Stats().PrefetchesIssued
	e.Evaluate(10, call, 0, false) // same RAS context signature as pass 1
	after := ctx.Hier.Stats().PrefetchesIssued
	if after == before {
		t.Fatal("RDIP did not replay recorded misses on context re-entry")
	}
	if e.Hits == 0 {
		t.Fatal("signature table never hit")
	}
}

// TestRDIPSignatureTableEvictsFIFO: the bounded signature table evicts
// in insertion order, a refreshed signature keeps its place, and the
// order holds as the ring of signatures wraps.
func TestRDIPSignatureTableEvictsFIFO(t *testing.T) {
	ctx, _ := testContext(t)
	e := NewRDIP(ctx, 2048)
	record := func(sig uint64) {
		e.curSig = sig
		e.OnDemandMiss(0, isa.Addr(sig*isa.BlockBytes))
		e.closeContext()
	}
	const n = rdipTableEntries
	for sig := uint64(1); sig <= n; sig++ {
		record(sig)
	}
	record(1) // a refresh, not a new entry: nothing is evicted
	if len(e.sigTable) != n {
		t.Fatalf("table holds %d signatures after a refresh, want %d", len(e.sigTable), n)
	}
	// Each new signature evicts the oldest: 1 first, although it was
	// refreshed last, and after n evictions the ones added since.
	for k := uint64(1); k <= n+3; k++ {
		record(n + k)
		if _, ok := e.sigTable[k]; ok {
			t.Fatalf("signature %d survived the eviction of insertion %d", k, k)
		}
		if _, ok := e.sigTable[k+1]; !ok {
			t.Fatalf("signature %d evicted out of order", k+1)
		}
		if len(e.sigTable) != n {
			t.Fatalf("table holds %d signatures, want %d", len(e.sigTable), n)
		}
	}
	if sig := e.sigTable[2*n+3]; sig.n != 1 || sig.blocks[0] != isa.Addr((2*n+3)*isa.BlockBytes) {
		t.Fatalf("newest signature records %+v", sig)
	}
}

func TestRDIPBTBStillThrashes(t *testing.T) {
	// Section 4.3: RDIP prefetches only the L1-I; its BTB behaves like
	// the baseline and redirects at decode on taken misses.
	ctx, prog := testContext(t)
	e := NewRDIP(ctx, 2048)
	bb := findBlock(prog, isa.BranchJump)
	ev := e.Evaluate(0, bb, 0, false)
	if !ev.DecodeRedirect {
		t.Fatal("RDIP must not hide BTB misses")
	}
	if e.BTBMisses() != 1 {
		t.Fatal("miss not counted")
	}
}

func TestShotgunNoRIBStillHitsReturns(t *testing.T) {
	ctx, _ := testContext(t)
	sz, err := btb.ShotgunSizesNoRIB(2048)
	if err != nil {
		t.Fatal(err)
	}
	e := NewShotgun(ctx, ShotgunConfig{Sizes: sz, Layout: footprint.Layout8, Mode: RegionVector})
	ret := isa.BasicBlock{PC: 0x4000_0100, NumInstr: 2, Kind: isa.BranchRet, Taken: true, Target: 0x4000_0200}
	e.org.Insert(ret.PC, btb.Entry{NumInstr: 2, Kind: isa.BranchRet})
	ev := e.Evaluate(0, ret, 0, false)
	if !ev.BTBHit {
		t.Fatal("no-RIB return missed despite U-BTB residence")
	}
}

// TestConfluenceSlotsFitIndex: every profile numbers fewer code-block
// slots than the modeled index holds entries, so a walker-driven
// Confluence engine can never fill its SHIFT index.
func TestConfluenceSlotsFitIndex(t *testing.T) {
	for _, p := range workload.Profiles() {
		if n := p.Decoder().Slots(); n >= confluenceIndexEntries {
			t.Errorf("%s: %d slots reach the %d-entry index", p.Name, n, confluenceIndexEntries)
		}
	}
}
