package prefetch

import (
	"shotgun/internal/isa"
	"shotgun/internal/stream"
	"shotgun/internal/uncore"
)

// Confluence (Kaynak et al., MICRO'15) is the state-of-the-art temporal
// streaming prefetcher: SHIFT's shared L1-I access history drives both
// instruction and BTB prefetching. We model it per Section 5.2 of the
// Shotgun paper: a 16K-entry BTB (the paper's generous upper bound), a
// 32K-entry history with an 8K-entry index virtualized into the LLC (the
// displaced capacity is charged via uncore.Config.LLCReserveBytes — see
// ConfluenceLLCReserveBytes), and — critically — an LLC round-trip delay
// on every stream restart before prefetching can resume, which is what
// costs Confluence its edge on Apache/Nutch/Streaming (Section 6.1).
// It prefetches from recorded streams, not the runahead, so a
// misprediction issues no extra probes.
//
// Warm is decodeBTB's BTB training only. The SHIFT history is trained
// by OnRetire, which the warm path drives too; the live stream state is
// timing-coupled and re-established by the detailed warm-up.
type Confluence struct {
	hooks
	decodeBTB
	ctx  Context
	hist *stream.SHIFT

	active     bool
	pos        uint64 // history position of the last matched block
	issuedUpTo uint64 // history position up to which probes are issued

	depth    int
	indexLat uint64

	// Restarts counts stream restarts (each pays the index round-trip);
	// Matches counts fetches that advanced the live stream.
	Restarts uint64
	Matches  uint64
}

// ConfluenceBTBEntries is the paper's upper-bound BTB size for Confluence.
const ConfluenceBTBEntries = 16384

// ConfluenceLLCReserveBytes is the LLC capacity displaced by the
// virtualized history and index. The paper charges 204KB of history plus
// 240KB of tag extensions against an 8MB LLC (~5.5%); we charge the same
// fraction of the simulator's 1MB modeled LLC share.
const ConfluenceLLCReserveBytes = 56 << 10

// confluenceDepth is the stream-replay lookahead in blocks.
const confluenceDepth = 40

// confluenceMatchWindow is how far ahead in the stream a fetched block
// may match before the stream is considered diverged.
const confluenceMatchWindow = 16

// confluenceHistoryEntries models SHIFT's 32K-entry per-core history
// scaled by cross-core sharing: all 16 cores run the same workload and
// contribute to (and read) one virtualized history, so a recurring code
// sequence re-enters the shared history 16x more often than a private
// one. A single-core simulation reproduces that recurrence-distance
// effect by scaling the history span.
const confluenceHistoryEntries = 16 * 32 << 10

// confluenceIndexEntries scales the 8K-entry index table the same way.
const confluenceIndexEntries = 16 * 8 << 10

// NewConfluence builds the engine (16K-entry BTB, shared SHIFT history).
// The SHIFT history works in ctx.Dec's slots, the dense numbering of the
// program's code blocks; every profile has fewer slots than
// confluenceIndexEntries, so a walker-driven index never fills.
func NewConfluence(ctx Context) *Confluence {
	return &Confluence{
		decodeBTB: newDecodeBTB(ConfluenceBTBEntries),
		ctx:       ctx,
		hist:      stream.New(confluenceHistoryEntries, confluenceIndexEntries, ctx.Dec.Slots()),
		depth:     confluenceDepth,
		indexLat:  uint64(ctx.Hier.Config().LLCLatencyCycles + ctx.Hier.Mesh.UncongestedRoundTrip()),
	}
}

// Evaluate implements Engine: the oversized BTB makes decode redirects
// rare; instruction prefetching is driven by the stream engine, not the
// runahead, so no FDIP probes are issued here.
func (e *Confluence) Evaluate(_ uint64, bb isa.BasicBlock, _ isa.Addr, _ bool) Eval {
	return e.lookup(bb)
}

// OnDemandMiss implements Engine: an L1-I miss restarts the stream. The
// index lookup costs an LLC round trip before any prefetch issues — the
// start-up delay Section 6.1 blames for Confluence's weak coverage on
// Nutch/Apache/Streaming. A block outside the program's code was never
// recorded, so it restarts nothing.
func (e *Confluence) OnDemandMiss(now uint64, block isa.Addr) {
	slot, ok := e.ctx.Dec.Slot(block)
	var pos uint64
	if ok {
		pos, ok = e.hist.Find(slot)
	}
	if !ok {
		e.active = false
		return
	}
	e.Restarts++
	e.active = true
	e.pos = pos
	e.issuedUpTo = pos
	e.issue(now + e.indexLat)
}

// OnFetch implements Engine: fetched blocks matching the live stream
// advance it, keeping the prefetch window `depth` blocks ahead.
func (e *Confluence) OnFetch(now uint64, block isa.Addr, _ uncore.Source) {
	if !e.active {
		return
	}
	slot, ok := e.ctx.Dec.Slot(block)
	if !ok {
		return // not code, so not in the history
	}
	for k := uint64(1); k <= confluenceMatchWindow; k++ {
		s, ok := e.hist.At(e.pos + k)
		if !ok {
			return
		}
		if s == slot {
			e.pos += k
			e.Matches++
			e.issue(now)
			return
		}
	}
}

// issue extends prefetch probes up to depth blocks past the current
// stream position, paced at a few probes per cycle so a burst does not
// swamp the mesh (the stream engine has finite issue bandwidth).
func (e *Confluence) issue(at uint64) {
	const probesPerCycle = 4
	target := e.pos + uint64(e.depth)
	n := 0
	for p := e.issuedUpTo + 1; p <= target; p++ {
		s, ok := e.hist.At(p)
		if !ok {
			break
		}
		e.ctx.Hier.PrefetchBlock(at+uint64(n/probesPerCycle), e.ctx.Dec.Block(s))
		e.issuedUpTo = p
		n++
	}
}

// OnRetire implements Engine: the retire stream trains the history. A
// retired block is code, so each of its cache blocks has a slot.
func (e *Confluence) OnRetire(bb isa.BasicBlock) {
	first, last := bb.BlockSpan()
	for blk := first; blk <= last; blk += isa.BlockBytes {
		if slot, ok := e.ctx.Dec.Slot(blk); ok {
			e.hist.Record(slot)
		}
	}
}

// OnArrival implements Engine: Confluence prefills the BTB from
// prefetched blocks using its unified metadata (predecode on fill).
func (e *Confluence) OnArrival(now uint64, arrivals []uncore.Arrival) {
	for _, a := range arrivals {
		for _, br := range e.ctx.Dec.Decode(a.Block) {
			pc := br.BlockPC(a.Block)
			if _, ok := e.btb.Peek(pc); !ok {
				e.btb.Insert(pc, br.Entry())
			}
		}
	}
}

// ResetStats implements Engine.
func (e *Confluence) ResetStats() {
	e.decodeBTB.ResetStats()
	e.Restarts = 0
	e.Matches = 0
}
