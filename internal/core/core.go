// Package core models one out-of-order server core (Table 3: 3-way OoO,
// 128-entry ROB) with a decoupled front-end: a branch-prediction unit
// that runs ahead of fetch filling a fetch target queue (FTQ), a fetch
// engine that consumes the FTQ through the L1-I, and a retire-side
// backend that exposes front-end stall cycles — the paper's primary
// metric.
//
// The simulation is trace-driven: the workload walker supplies the
// correct execution path, and the core charges the penalties the modeled
// structures (BTB organization, TAGE, RAS, caches) would have incurred —
// decode-time re-steers for undetected taken branches, execute-time
// flushes for direction/return mispredictions, and fetch stalls for L1-I
// misses. A control-flow delivery engine (package prefetch) supplies the
// BTB organization and prefetching policy.
package core

import (
	"shotgun/internal/bpu"
	"shotgun/internal/isa"
	"shotgun/internal/prefetch"
	"shotgun/internal/uncore"
	"shotgun/internal/workload"
	"shotgun/internal/xrand"
)

// Table 3 core parameters.
const (
	fetchWidth  = 3   // 3-way core
	retireWidth = 3   // instructions retired per cycle
	robEntries  = 128 // reorder-buffer entries
	ftqEntries  = 32  // fetch target queue entries (Section 5.2)

	// runaheadPerCycle bounds BPU throughput in basic blocks per cycle.
	runaheadPerCycle = 2

	// decodeRedirectCycles is the bubble for a taken branch undetected
	// until decode (BTB miss); execRedirectCycles the flush penalty for
	// direction/return-target mispredictions resolved at execute.
	decodeRedirectCycles = 8
	execRedirectCycles   = 14

	// execLatencyCycles is the dispatch-to-complete latency of ordinary
	// instructions; loads add their memory latency.
	execLatencyCycles = 3

	rasEntries = 32
)

// The lookahead ring indexes with & (ftqEntries-1), so ftqEntries must be
// a power of two; any other value makes this array length differ from 1
// and fails to compile.
var _ [1]struct{} = [ftqEntries&(ftqEntries-1) + 1]struct{}{}

// Config sets the core's predictor variant and data-side behaviour. Zero
// data-side fields take the defaults below.
type Config struct {
	// CLZTage selects the CLZ-indexed TAGE variant (bpu.NewCLZTAGE) as
	// the direction predictor; false is the default TAGE.
	CLZTage bool

	// Data-side behaviour (from the workload profile).
	LoadFrac   float64
	DataBlocks int
	DataZipfS  float64
	DataSeed   uint64
}

func (c *Config) setDefaults() {
	if c.LoadFrac == 0 {
		c.LoadFrac = 0.25
	}
	if c.DataBlocks == 0 {
		c.DataBlocks = 8 << 10
	}
	if c.DataZipfS == 0 {
		c.DataZipfS = 0.8
	}
	if c.DataSeed == 0 {
		c.DataSeed = 0xdada
	}
}

// dataBase places the synthetic data working set away from code.
const dataBase = isa.Addr(0x2000_0000_0000)

// Stats aggregates the core's measurement counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	// FrontEndStallCycles counts cycles where retirement was starved by
	// an empty ROB (nothing in flight: the front-end failed to supply
	// instructions). BackEndStallCycles counts zero-retire cycles with a
	// non-empty ROB (data stalls).
	FrontEndStallCycles uint64
	BackEndStallCycles  uint64

	// FetchStallCycles counts cycles fetch waited on an L1-I fill.
	FetchStallCycles uint64

	DecodeRedirects uint64
	ExecRedirects   uint64
	DirMispredicts  uint64
	RASMispredicts  uint64

	CondBranches uint64
	Branches     uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MPKI converts an event count to events per kilo-instruction.
func (s Stats) MPKI(events uint64) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(events) / float64(s.Instructions) * 1000
}

// pblock is one trace block in the lookahead window with its cached BPU
// evaluation (evaluated exactly once, in trace order, so TAGE and RAS see
// a consistent in-order stream even across flush re-walks).
type pblock struct {
	bb             isa.BasicBlock
	evaluated      bool
	decodeRedirect bool
	execRedirect   bool
}

// Core simulates one core running basic-block traces under a control-
// flow delivery engine. Its front-end serves one or more hardware
// contexts: each context (hwContext) has its own trace, return-address
// stack, lookahead window and data-side RNG, while the fetch engine,
// prefetch engine/BTB, caches, direction predictor, ROB and retire stage
// are shared. Switch-on-stall is sub-cycle: in the same cycle a context
// stalls, the runahead and the fetch engine move to the next ready
// sibling. A one-context core is the classic single-threaded core of
// the paper's evaluation.
type Core struct {
	cfg    Config
	engine prefetch.Engine
	hier   *uncore.Hierarchy

	tage *bpu.TAGE

	// loadDraw is the LoadFrac Bernoulli with its threshold precomputed;
	// it consumes the same draws as dataRNG.Bool(LoadFrac) so results are
	// unchanged.
	loadDraw xrand.Bernoulli
	// loadSched is dispatch's reusable per-block load schedule: the data
	// addresses the block's instructions access, drawn in one pass.
	loadSched []isa.Addr

	now uint64

	fetchBusyUntil uint64

	// rob holds completion times; in-order retire from the head. The
	// ring itself is the last field, so the hot scalar fields above
	// share cache lines instead of straddling its 1KB.
	robHead int
	robLen  int

	// blocksDispatched counts trace blocks dispatched into the ROB — the
	// progress unit of sampled execution (RunBlocks).
	blocksDispatched uint64

	// ctxs holds at least one hardware context.
	ctxs   []hwContext
	runCtx int // context the BPU runahead is following
	fetCtx int // context the fetch engine last dispatched for

	stats Stats

	rob [robEntries]uint64
}

// hwContext is one hardware context of the front-end: its own trace
// stream, return-address stack, lookahead window and data-side RNG
// state. Everything else — TAGE, engine, caches, fetch bandwidth, ROB,
// retire — is shared with its siblings, which is exactly where the SMT
// pressure a multi-context core models comes from.
type hwContext struct {
	trace workload.Stream
	ras   *bpu.RAS

	dataRNG  *xrand.Source
	dataZipf *xrand.Zipf

	// pending is the lookahead window, a ring of pendLen blocks from
	// pendHead: its first ftqLen blocks are the FTQ (evaluated, awaiting
	// fetch); the rest await evaluation. The runahead only tops it up to
	// ftqLen+1 with ftqLen < ftqEntries, and a redirect only lowers
	// ftqLen, so the window never exceeds ftqEntries blocks.
	pending  [ftqEntries]pblock
	pendHead int
	pendLen  int
	ftqLen   int

	runStallUntil uint64
	// wrongPath is set when the runahead evaluated a block whose branch
	// re-steers the pipeline: until that block is dispatched (and the
	// flush happens), the real BPU would be predicting down the wrong
	// path, so no further correct-path blocks may be evaluated or
	// prefetched for this context.
	wrongPath bool

	headIssued  bool
	headReadyAt uint64
}

// canRun reports whether the runahead can evaluate a block for the
// context this cycle: not stalled on a reactive BTB-miss resolution, not
// down a wrong path, and with FTQ room.
func (hc *hwContext) canRun(now uint64) bool {
	return now >= hc.runStallUntil && !hc.wrongPath && hc.ftqLen < ftqEntries
}

// ensurePending tops up the context's lookahead window from its trace.
func (hc *hwContext) ensurePending(n int) {
	if n > ftqEntries {
		panic("core: lookahead window exceeds the FTQ ring")
	}
	for hc.pendLen < n {
		hc.pending[(hc.pendHead+hc.pendLen)&(ftqEntries-1)] = pblock{bb: hc.trace.Next()}
		hc.pendLen++
	}
}

// pend returns the context's i-th lookahead block (0 is the FTQ head).
func (hc *hwContext) pend(i int) *pblock {
	return &hc.pending[(hc.pendHead+i)&(ftqEntries-1)]
}

// popPending removes the context's FTQ head after dispatch.
func (hc *hwContext) popPending() {
	hc.pendHead = (hc.pendHead + 1) & (ftqEntries - 1)
	hc.pendLen--
	hc.ftqLen--
	hc.headIssued = false
}

// ctxDataSalt decorrelates per-context data-side RNG streams within one
// core. Context 0 is unsalted: a one-context core draws the classic
// single-context stream.
func ctxDataSalt(k int) uint64 {
	return uint64(k) * 0x94d049bb133111eb
}

// New builds a core whose front-end is shared by len(streams) hardware
// contexts, one trace stream per context, over the given engine and
// hierarchy. Each context gets its own RAS, lookahead window and salted
// data-side RNG.
func New(cfg Config, streams []workload.Stream, engine prefetch.Engine, hier *uncore.Hierarchy) *Core {
	if len(streams) == 0 {
		panic("core: New needs at least one stream")
	}
	cfg.setDefaults()
	tage := bpu.NewTAGE()
	if cfg.CLZTage {
		tage = bpu.NewCLZTAGE()
	}
	c := &Core{
		cfg:       cfg,
		engine:    engine,
		hier:      hier,
		tage:      tage,
		loadDraw:  xrand.NewBernoulli(cfg.LoadFrac),
		loadSched: make([]isa.Addr, 0, isa.MaxBlockInstrs),
		ctxs:      make([]hwContext, len(streams)),
	}
	for k, s := range streams {
		rng := xrand.New(cfg.DataSeed ^ ctxDataSalt(k))
		c.ctxs[k] = hwContext{
			trace:    s,
			ras:      bpu.NewRAS(rasEntries),
			dataRNG:  rng,
			dataZipf: xrand.NewZipf(rng, cfg.DataBlocks, cfg.DataZipfS),
		}
	}
	return c
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Instructions returns the retired-instruction counter alone — the
// per-tick progress probe of the event kernel's phase machine, which
// must not copy the whole Stats struct every tick.
func (c *Core) Instructions() uint64 { return c.stats.Instructions }

// Hierarchy returns the memory hierarchy.
func (c *Core) Hierarchy() *uncore.Hierarchy { return c.hier }

// Engine returns the control-flow delivery engine.
func (c *Core) Engine() prefetch.Engine { return c.engine }

// ResetStats clears measurement counters at the warmup boundary without
// touching microarchitectural state.
func (c *Core) ResetStats() {
	c.stats = Stats{}
	c.hier.ResetStats()
	c.engine.ResetStats()
	c.tage.ResetStats()
}

// BlocksDispatched returns how many trace blocks have been dispatched —
// sampled execution's progress unit.
func (c *Core) BlocksDispatched() uint64 { return c.blocksDispatched }

// RunBlocks advances the detailed simulation until n more trace blocks
// have been dispatched, returning the cycles consumed. Sampling measures
// in blocks rather than instructions so unit boundaries land on trace
// positions, independent of retire lag. Like the event kernel, it skips
// each provably idle span (NextEvent/AdvanceIdle) after a real tick.
func (c *Core) RunBlocks(n uint64) uint64 {
	startCycles := c.stats.Cycles
	target := c.blocksDispatched + n
	for c.blocksDispatched < target {
		c.Tick()
		if c.blocksDispatched >= target {
			break
		}
		if next := c.NextEvent(); next > c.now {
			c.AdvanceIdle(next - c.now)
		}
	}
	return c.stats.Cycles - startCycles
}

// The functional-warming path below (BeginWarm, WarmBlocks, SkimBlocks)
// drives context 0 alone: sampled execution is single-context, which
// sim.Config.Validate enforces.

// BeginWarm transitions from detailed execution to functional warming.
// The lookahead window holds trace blocks already consumed from the
// stream; they are drained through the warm path — cache/data warming
// for every entry, plus predictor training for the entries the runahead
// never evaluated (evaluated entries trained TAGE/RAS at evaluate time;
// re-training them would double-count) — and the front-end state is
// reset so the next detailed phase starts from a clean FTQ. The clock,
// the ROB, and in-flight fills are left untouched: warming takes zero
// simulated time.
func (c *Core) BeginWarm() {
	hc := &c.ctxs[0]
	for i := 0; i < hc.pendLen; i++ {
		p := hc.pend(i)
		if p.evaluated {
			c.warmCaches(p.bb)
		} else {
			c.WarmBlock(p.bb)
		}
	}
	hc.pendHead, hc.pendLen = 0, 0
	hc.ftqLen = 0
	hc.headIssued = false
	hc.wrongPath = false
	hc.runStallUntil = 0
	c.fetchBusyUntil = 0
}

// WarmBlock functionally executes one trace block: predictor and engine
// metadata training plus untimed cache warming, with no cycle cost.
func (c *Core) WarmBlock(bb isa.BasicBlock) {
	c.warmBPU(bb)
	c.warmCaches(bb)
}

// WarmBlocks functionally executes the next n trace blocks, returning
// the instructions they carry (the fast-forwarded instruction count).
func (c *Core) WarmBlocks(n uint64) uint64 {
	trace := c.ctxs[0].trace
	var instr uint64
	for i := uint64(0); i < n; i++ {
		bb := trace.Next()
		instr += uint64(bb.NumInstr)
		c.WarmBlock(bb)
	}
	return instr
}

// SkimBlocks fast-forwards the stream n blocks touching only the LLC —
// no cycles, no RNG draws, no L1/BTB/predictor training. Sampling uses
// it for the distant part of a period gap when a bounded functional-
// warming window is configured: the small structures are rebuilt by the
// warming window and detailed warm-up that follow, but the LLC's
// instruction working set is too large to rebuild in any affordable
// window, so it alone must track the stream continuously.
func (c *Core) SkimBlocks(n uint64) uint64 {
	trace := c.ctxs[0].trace
	var instr uint64
	// Consecutive basic blocks mostly share one 64-byte cache block
	// (~5.5 instructions per bb); touching it once per run of repeats
	// keeps the same LLC contents and recency at a fraction of the
	// Access calls, which dominate the skim's cost.
	last := isa.Addr(1) // never a block-aligned address
	for i := uint64(0); i < n; i++ {
		bb := trace.Next()
		instr += uint64(bb.NumInstr)
		first, lastBlk := bb.BlockSpan()
		for blk := first; blk <= lastBlk; blk += isa.BlockBytes {
			if blk == last {
				continue
			}
			c.hier.WarmLLC(blk)
			last = blk
		}
	}
	return instr
}

// warmBPU mirrors evaluate's exact predictor call sequence — RAS pop for
// returns, TAGE Predict+Update for conditionals (Predict counts lookups,
// which paces the use-bit decay), RAS push + ghist note for calls, ghist
// notes for returns and jumps — so the direction predictor and RAS cross
// a warming gap in the same state a detailed run would leave them.
func (c *Core) warmBPU(bb isa.BasicBlock) {
	ras := c.ctxs[0].ras
	if bb.Kind.IsReturn() {
		ras.Pop()
	}
	c.engine.Warm(bb)
	switch {
	case bb.Kind == isa.BranchCond:
		c.tage.Predict(bb.BranchPC())
		c.tage.Update(bb.BranchPC(), bb.Taken)
	case bb.Kind.IsCallLike():
		ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
		c.tage.NoteUncond()
	case bb.Kind.IsReturn():
		c.tage.NoteUncond()
	case bb.Kind == isa.BranchJump:
		c.tage.NoteUncond()
	}
}

// warmCaches applies a block's untimed memory-side effects: L1-I/LLC
// warming over the block span, the identical per-instruction Bernoulli
// and per-load Zipf draws the detailed dispatch consumes (keeping the
// data RNG stream aligned across mode switches) with L1-D/LLC warming
// for the loads, and the engine's retire-order training hook.
func (c *Core) warmCaches(bb isa.BasicBlock) {
	hc := &c.ctxs[0]
	first, last := bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		c.hier.WarmFetch(blk)
	}
	for i := 0; i < bb.NumInstr; i++ {
		if c.loadDraw.Draw(hc.dataRNG) {
			c.hier.WarmData(dataBase + isa.Addr(hc.dataZipf.Next()*isa.BlockBytes))
		}
	}
	c.engine.OnRetire(bb)
}

// NextEvent returns the earliest cycle at which Tick can do anything
// beyond idle accounting: materialize an arrival, evaluate a block into
// an FTQ, issue or complete a fetch, dispatch, or retire. Every cycle in
// [Now, NextEvent) is provably idle — a Tick there mutates nothing but
// the stall counters, Cycles, and the clock (exactly what AdvanceIdle
// bulk-applies) and touches no shared uncore state.
//
// The deadline may be conservative (an "active" tick may still find
// nothing to do after a flush re-steers state), but it is never late:
// each branch below mirrors one gating condition of Tick's sub-units,
// and each such condition can only change at a deadline this function
// already includes. A finite value always exists while the traces have
// blocks — the runahead can act whenever a context has FTQ room and is
// on the right path, a wrong path implies an undispatched FTQ entry,
// and a full FTQ implies fetch or retire has a pending deadline.
func (c *Core) NextEvent() uint64 {
	// Completed fills are materialized the cycle the watermark expires.
	next := c.hier.NextArrival()

	fetchFree := c.now >= c.fetchBusyUntil
	anyFTQ := false
	for k := range c.ctxs {
		hc := &c.ctxs[k]
		// Runahead: able to evaluate now unless stalled, wrong-path, or
		// out of FTQ room; a pending reactive resolution is a deadline.
		if !hc.wrongPath && hc.ftqLen < ftqEntries {
			if c.now >= hc.runStallUntil {
				return c.now
			}
			if hc.runStallUntil < next {
				next = hc.runStallUntil
			}
		}
		// Fetch: past the bandwidth boundary, an unissued head or a
		// dispatchable head is activity now and a fill wait a deadline.
		if hc.ftqLen == 0 {
			continue
		}
		anyFTQ = true
		if !fetchFree {
			continue
		}
		switch {
		case !hc.headIssued:
			return c.now
		case hc.headReadyAt > c.now:
			if hc.headReadyAt < next {
				next = hc.headReadyAt
			}
		case c.robFree() >= hc.pend(0).bb.NumInstr:
			return c.now
			// Otherwise this head waits on backend pressure, which only
			// the retire deadline below can relieve.
		}
	}
	// The end of the fetch-bandwidth slot is a deadline while any context
	// has an FTQ entry to fetch.
	if anyFTQ && !fetchFree && c.fetchBusyUntil < next {
		next = c.fetchBusyUntil
	}

	// Retire: the head of the ROB completes at a known cycle.
	if c.robLen > 0 && c.rob[c.robHead] < next {
		next = c.rob[c.robHead]
	}

	if next < c.now {
		return c.now
	}
	return next
}

// AdvanceIdle bulk-applies k idle cycles: exactly the state a Tick
// performs on a cycle strictly before NextEvent — the fetch-stall,
// front-end/back-end stall classification, the cycle counter and the
// clock — with no other mutation. Callers must only skip spans that end
// at or before NextEvent; the stall predicates below are constant
// across such a span because every cycle that could flip them is a
// deadline NextEvent includes.
func (c *Core) AdvanceIdle(k uint64) {
	if k == 0 {
		return
	}
	// fetch() counts a fill-wait cycle iff it is past the bandwidth
	// boundary and some context waits on an issued head not yet arrived.
	if c.now >= c.fetchBusyUntil {
		for i := range c.ctxs {
			hc := &c.ctxs[i]
			if hc.ftqLen > 0 && hc.headIssued && hc.headReadyAt > c.now {
				c.stats.FetchStallCycles += k
				break
			}
		}
	}
	// retire() classifies every zero-retire cycle; idle cycles retire
	// nothing by definition.
	if c.robLen == 0 {
		c.stats.FrontEndStallCycles += k
	} else {
		c.stats.BackEndStallCycles += k
	}
	c.now += k
	c.stats.Cycles += k
}

// Tick advances the simulation by one cycle.
func (c *Core) Tick() {
	// 1. Materialize completed fills; let the engine predecode them.
	if arr := c.hier.PollArrivals(c.now); arr != nil {
		c.engine.OnArrival(c.now, arr)
	}

	// 2. Branch-prediction unit runahead: evaluate blocks into the FTQs.
	c.runahead()

	// 3. Fetch: consume an FTQ head through the L1-I into the ROB.
	c.fetch()

	// 4. Retire up to retireWidth completed instructions in order.
	c.retire()

	c.now++
	c.stats.Cycles++
}

// runahead advances the BPU: up to runaheadPerCycle blocks are evaluated
// (BTB lookup, direction/return prediction, engine prefetching) and
// appended to an FTQ. The BPU keeps following c.runCtx while it can make
// progress and switches to the next ready sibling the moment it cannot —
// switch-on-stall at zero cost.
func (c *Core) runahead() {
	for i := 0; i < runaheadPerCycle; i++ {
		hc := &c.ctxs[c.runCtx]
		if !hc.canRun(c.now) {
			if hc = c.nextRunnable(); hc == nil {
				return // every context stalled, wrong-path, or FTQ-full
			}
		}
		hc.ensurePending(hc.ftqLen + 1)
		p := hc.pend(hc.ftqLen)
		if !p.evaluated {
			if stall := c.evaluate(p, hc.ras); stall > c.now {
				hc.runStallUntil = stall
			}
		}
		if p.decodeRedirect || p.execRedirect {
			hc.wrongPath = true
		}
		hc.ftqLen++
	}
}

// nextRunnable moves the runahead to the first sibling after c.runCtx,
// round-robin, that can make progress, or returns nil if none can.
func (c *Core) nextRunnable() *hwContext {
	k := c.runCtx
	for j := 1; j < len(c.ctxs); j++ {
		if k++; k == len(c.ctxs) {
			k = 0
		}
		if hc := &c.ctxs[k]; hc.canRun(c.now) {
			c.runCtx = k
			return hc
		}
	}
	return nil
}

// evaluate performs the one-time BPU evaluation of a pending block,
// returning a non-zero stall deadline for reactive resolutions. The RAS
// is the evaluating context's own.
func (c *Core) evaluate(p *pblock, ras *bpu.RAS) uint64 {
	bb := p.bb
	p.evaluated = true

	// Returns consult the RAS (popped at predict time); Shotgun
	// additionally uses the popped call-block address to locate the
	// return footprint in the U-BTB.
	var rasCallBlock, rasPredTarget isa.Addr
	rasOK := false
	rasWrong := false
	if bb.Kind.IsReturn() {
		e, ok := ras.Pop()
		rasOK = ok
		rasCallBlock = e.CallBlock
		rasPredTarget = e.ReturnAddr
		rasWrong = !ok || e.ReturnAddr != bb.Target
	}

	ev := c.engine.Evaluate(c.now, bb, rasCallBlock, rasOK)

	if bb.Kind != isa.BranchNone {
		c.stats.Branches++
	}

	switch {
	case bb.Kind == isa.BranchCond:
		c.stats.CondBranches++
		pred := c.tage.Predict(bb.BranchPC())
		c.tage.Update(bb.BranchPC(), bb.Taken)
		if ev.BTBHit && pred != bb.Taken {
			p.execRedirect = true
			c.stats.DirMispredicts++
			// The runahead chases the predicted (wrong) direction.
			wrong := bb.Target
			if !bb.Taken {
				wrong = bb.FallThrough()
			}
			c.engine.OnMispredict(c.now, wrong)
		}
	case bb.Kind.IsCallLike():
		ras.Push(bpu.RASEntry{ReturnAddr: bb.FallThrough(), CallBlock: bb.PC})
		c.tage.NoteUncond()
	case bb.Kind.IsReturn():
		if ev.BTBHit && rasWrong {
			p.execRedirect = true
			c.stats.RASMispredicts++
			if rasOK {
				// The runahead chases the stale predicted return target.
				c.engine.OnMispredict(c.now, rasPredTarget)
			}
		}
		c.tage.NoteUncond()
	case bb.Kind == isa.BranchJump:
		c.tage.NoteUncond()
	}

	if ev.DecodeRedirect {
		p.decodeRedirect = true
	}
	return ev.StallUntil
}

// fetch shares the fetch engine across contexts: once past the bandwidth
// boundary it first issues the demand fetch for every unissued FTQ head
// (demand probes overlap across contexts — fetch-under-fill), then
// dispatches into the ROB for the first context, round-robin from the
// last one served, whose head has arrived and fits. At most one context
// dispatches per bandwidth slot; a cycle where the only eligible heads
// are waiting on fills is a fetch stall.
func (c *Core) fetch() {
	if c.now < c.fetchBusyUntil {
		return
	}
	waiting := false // some context's issued head is still filling
	for i := range c.ctxs {
		hc := &c.ctxs[i]
		if hc.ftqLen == 0 {
			continue
		}
		if !hc.headIssued {
			c.issueHead(hc)
		}
		if hc.headReadyAt > c.now {
			waiting = true
		}
	}
	k := c.fetCtx
	for range c.ctxs {
		if hc := &c.ctxs[k]; hc.ftqLen > 0 && hc.headReadyAt <= c.now &&
			c.robFree() >= hc.pend(0).bb.NumInstr {
			c.fetCtx = k
			c.dispatchHead(hc)
			return
		}
		if k++; k == len(c.ctxs) {
			k = 0
		}
	}
	// No context could dispatch: a fill-wait cycle iff some context is
	// actually waiting on an issued fetch.
	if waiting {
		c.stats.FetchStallCycles++
	}
}

// issueHead issues the demand fetch for a context's FTQ head, recording
// when its last block arrives.
func (c *Core) issueHead(hc *hwContext) {
	ready := c.now
	first, last := hc.pend(0).bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		r, src := c.hier.FetchBlock(c.now, blk)
		c.engine.OnFetch(c.now, blk, src)
		if src == uncore.SrcLLC || src == uncore.SrcMemory {
			c.engine.OnDemandMiss(c.now, blk)
		}
		if r > ready {
			ready = r
		}
	}
	hc.headIssued = true
	hc.headReadyAt = ready
}

// dispatchHead moves a context's arrived FTQ head into the ROB (all
// instructions of the block at once), occupies the fetch bandwidth, and
// applies the block's re-steer, if any.
func (c *Core) dispatchHead(hc *hwContext) {
	p := hc.pend(0)
	n := p.bb.NumInstr
	c.dispatch(p.bb, hc)

	// Fetch bandwidth: a 3-wide front-end needs ceil(n/width) cycles.
	c.fetchBusyUntil = c.now + uint64((n+fetchWidth-1)/fetchWidth)

	// Redirects: flush the FTQ beyond the branch and re-steer.
	switch {
	case p.decodeRedirect:
		c.stats.DecodeRedirects++
		c.redirect(hc, decodeRedirectCycles)
	case p.execRedirect:
		c.stats.ExecRedirects++
		c.redirect(hc, execRedirectCycles)
	}

	hc.popPending()
}

// redirect models a pipeline re-steer of one context: fetch emits a
// bubble, which occupies the shared fetch engine, and the context's FTQ
// contents past the redirecting branch are discarded (the runahead
// re-walks them; cached evaluations prevent double training).
func (c *Core) redirect(hc *hwContext, penalty uint64) {
	if until := c.now + penalty; until > c.fetchBusyUntil {
		c.fetchBusyUntil = until
	}
	hc.ftqLen = 1 // keep only the block being dispatched
	if hc.runStallUntil > c.now {
		// The pending resolution belongs to a flushed entry; the
		// re-walk will find the BTB filled, so drop the stall.
		hc.runStallUntil = c.now
	}
	// The flush re-steers the BPU onto the correct path.
	hc.wrongPath = false
}

// dispatch enters a block's instructions into the ROB and notifies the
// engine of the retire-order stream (dispatch order equals retire order).
//
// The data side runs off a per-block schedule: one pass draws which
// instructions load and from where (the Bernoulli/Zipf draws of the
// dispatching context, in the same per-instruction order as ever, so the
// random stream and therefore every result is unchanged), then the
// hierarchy is charged and the ROB filled from the schedule. Non-load
// instructions take the scheduling fast path: one RNG draw, no
// hierarchy call.
func (c *Core) dispatch(bb isa.BasicBlock, hc *hwContext) {
	rng, zipf := hc.dataRNG, hc.dataZipf
	// Pass 1: the load schedule. A sentinel address marks non-loads so
	// pass 2 preserves instruction order without a second draw.
	sched := c.loadSched[:0]
	for i := 0; i < bb.NumInstr; i++ {
		if c.loadDraw.Draw(rng) {
			sched = append(sched, dataBase+isa.Addr(zipf.Next()*isa.BlockBytes))
		} else {
			sched = append(sched, 0)
		}
	}
	c.loadSched = sched
	// Pass 2: charge the hierarchy and fill the ROB.
	for _, addr := range sched {
		complete := c.now + execLatencyCycles
		if addr != 0 {
			ready, _ := c.hier.DataAccess(c.now, addr)
			if ready+execLatencyCycles > complete {
				complete = ready + execLatencyCycles
			}
		}
		c.robPush(complete)
	}
	c.blocksDispatched++
	c.engine.OnRetire(bb)
}

func (c *Core) robFree() int { return robEntries - c.robLen }

func (c *Core) robPush(complete uint64) {
	// robHead+robLen < 2*robEntries always, so a compare-subtract wraps
	// the ring without the general modulo.
	idx := c.robHead + c.robLen
	if idx >= robEntries {
		idx -= robEntries
	}
	c.rob[idx] = complete
	c.robLen++
}

// retire pops up to retireWidth completed instructions in order and
// classifies zero-retire cycles as front-end or back-end stalls.
func (c *Core) retire() {
	retired := 0
	for retired < retireWidth && c.robLen > 0 && c.rob[c.robHead] <= c.now {
		c.robHead++
		if c.robHead == robEntries {
			c.robHead = 0
		}
		c.robLen--
		retired++
	}
	c.stats.Instructions += uint64(retired)
	if retired == 0 {
		if c.robLen == 0 {
			c.stats.FrontEndStallCycles++
		} else {
			c.stats.BackEndStallCycles++
		}
	}
}
