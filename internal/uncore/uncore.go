// Package uncore assembles the simulated memory hierarchy: private L1-I
// (with its prefetch buffer) and L1-D, a shared NUCA LLC reached across
// the mesh interconnect, and main memory. All parameters default to the
// paper's Table 3.
//
// The hierarchy exposes a timed request API: callers pass the current
// cycle and receive the cycle at which the request's block is available.
// Instruction-side fills are tracked in-flight so that a demand fetch
// arriving while a prefetch for the same block is outstanding observes
// only the residual latency — exactly the "in-flight prefetch" partial
// coverage the paper's stall-cycle metric is designed to capture.
//
// A Shared holds the portion of the hierarchy that is genuinely common
// to every core of a CMP scenario — one finite-capacity LLC and one
// mesh backlog — and AttachCore hangs per-core private hierarchies off
// it. New (the single-core constructor) is the N=1 special case: a
// Shared with exactly one core attached.
//
// Concurrency contract: a Shared and every Hierarchy attached to it
// must be driven by ONE goroutine (the scenario's event kernel). None
// of the structures lock — per-cycle calls are the simulator's hottest
// path — so concurrent use from two goroutines is a data race (caught
// by the race-detector tests). Concurrency belongs one level up:
// independent simulations, each with its own Shared, may run in
// parallel freely.
package uncore

import (
	"fmt"

	"shotgun/internal/cache"
	"shotgun/internal/isa"
	"shotgun/internal/noc"
)

// Config sizes the hierarchy. Zero fields default to Table 3 values.
type Config struct {
	L1ISizeBytes, L1IWays int // 32KB, 2-way
	L1DSizeBytes, L1DWays int // 32KB, 2-way
	L1LatencyCycles       int // 2

	LLCSizeBytes, LLCWays int // modeled share of the 8MB NUCA cache
	// LLCReserveBytes shrinks the effective LLC, modeling capacity
	// carved out for virtualized prefetcher metadata (Confluence/SHIFT
	// pins its history table in the LLC).
	LLCReserveBytes  int
	LLCLatencyCycles int // 5 (bank access; mesh adds route+queue)

	MemLatencyCycles int // 90 (45ns at 2GHz)

	PrefetchBufferEntries int // 64

	Mesh noc.Config
}

// DefaultConfig mirrors Table 3.
func DefaultConfig() Config {
	return Config{
		L1ISizeBytes: 32 << 10, L1IWays: 2,
		L1DSizeBytes: 32 << 10, L1DWays: 2,
		L1LatencyCycles: 2,
		LLCSizeBytes:    1 << 20, LLCWays: 16,
		LLCLatencyCycles:      5,
		MemLatencyCycles:      90,
		PrefetchBufferEntries: 64,
		Mesh:                  noc.DefaultConfig(),
	}
}

func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.L1ISizeBytes == 0 {
		c.L1ISizeBytes, c.L1IWays = d.L1ISizeBytes, d.L1IWays
	}
	if c.L1DSizeBytes == 0 {
		c.L1DSizeBytes, c.L1DWays = d.L1DSizeBytes, d.L1DWays
	}
	if c.L1LatencyCycles == 0 {
		c.L1LatencyCycles = d.L1LatencyCycles
	}
	if c.LLCSizeBytes == 0 {
		c.LLCSizeBytes, c.LLCWays = d.LLCSizeBytes, d.LLCWays
	}
	if c.LLCLatencyCycles == 0 {
		c.LLCLatencyCycles = d.LLCLatencyCycles
	}
	if c.MemLatencyCycles == 0 {
		c.MemLatencyCycles = d.MemLatencyCycles
	}
	if c.PrefetchBufferEntries == 0 {
		c.PrefetchBufferEntries = d.PrefetchBufferEntries
	}
	if c.Mesh.Rows == 0 {
		c.Mesh = d.Mesh
	}
}

// Source identifies where a request was satisfied.
type Source uint8

const (
	// SrcL1 means the private cache hit.
	SrcL1 Source = iota
	// SrcPrefetchBuffer means the L1-I prefetch buffer held the block.
	SrcPrefetchBuffer
	// SrcInflight means an outstanding fill for the block was joined.
	SrcInflight
	// SrcLLC means the shared cache supplied the block.
	SrcLLC
	// SrcMemory means main memory supplied the block.
	SrcMemory
)

func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcPrefetchBuffer:
		return "prefetch-buffer"
	case SrcInflight:
		return "inflight"
	case SrcLLC:
		return "LLC"
	case SrcMemory:
		return "memory"
	}
	return fmt.Sprintf("Source(%d)", uint8(s))
}

// Arrival reports a completed instruction-side fill.
type Arrival struct {
	Block isa.Addr
	// Ready is the cycle the block became available.
	Ready uint64
	// Demand is true when a demand fetch is waiting on the block (it is
	// installed in the L1-I); prefetch-only fills go to the buffer.
	Demand bool
}

// Stats aggregates hierarchy counters beyond the per-cache ones.
type Stats struct {
	DemandFetches     uint64
	DemandL1IHits     uint64
	DemandPrefBufHits uint64
	DemandInflight    uint64
	DemandLLCHits     uint64
	DemandMemFills    uint64

	PrefetchesIssued    uint64
	PrefetchesRedundant uint64
	PrefetchLLCHits     uint64
	PrefetchMemFills    uint64
	// PrefetchUsefulInflight counts prefetch-initiated fills joined by a
	// demand fetch before arrival (timely enough to hide part of the
	// latency; counted as useful for Figure 10's accuracy metric).
	PrefetchUsefulInflight uint64

	DataAccesses    uint64
	DataL1DHits     uint64
	DataLLCHits     uint64
	DataMemFills    uint64
	DataFillCycles  uint64 // total cycles to fill L1-D misses (Figure 11)
	DataFillSamples uint64
}

// AvgDataFillCycles returns the mean L1-D miss fill latency (Figure 11).
func (s Stats) AvgDataFillCycles() float64 {
	if s.DataFillSamples == 0 {
		return 0
	}
	return float64(s.DataFillCycles) / float64(s.DataFillSamples)
}

// Shared is the uncore state all cores of a scenario contend for: one
// finite-capacity LLC (occupancy and eviction are real, so one core's
// fills displace another's blocks) and one mesh backlog (every core's
// messages queue behind each other). See the package comment for the
// single-goroutine driving contract.
type Shared struct {
	cfg Config

	LLC  *cache.Cache
	Mesh *noc.Mesh

	cores int
}

// asidShift places the per-core address-space tag above every address
// the core model generates (code sits low; the synthetic data segment
// at 2^45). Tagging LLC traffic with the core's ASID keeps co-runners'
// address spaces distinct — like separate processes — so shared-LLC
// contention is pure capacity/bandwidth interference, never bogus
// cross-core hits on coincidentally equal addresses.
const asidShift = 48

// NewShared builds the shared LLC and mesh from cfg (zero fields
// defaulted). Scenario callers size cfg.LLCSizeBytes to the total
// capacity the active cores share; the single-core default (1MB) is one
// core's modeled NUCA share.
func NewShared(cfg Config) *Shared {
	cfg.setDefaults()
	// The LLC reserve (virtualized prefetcher metadata) is charged by
	// trimming associativity: the set count stays a power of two while
	// whole ways are given up, mirroring way-partitioned pinning.
	sets := 1
	for sets*2 <= cfg.LLCSizeBytes/isa.BlockBytes/cfg.LLCWays {
		sets *= 2
	}
	ways := (cfg.LLCSizeBytes - cfg.LLCReserveBytes) / (sets * isa.BlockBytes)
	if ways < 1 {
		ways = 1
	}
	llcSize := sets * ways * isa.BlockBytes
	return &Shared{
		cfg:  cfg,
		LLC:  cache.MustNew("LLC", llcSize, ways),
		Mesh: noc.MustNew(cfg.Mesh),
	}
}

// Config returns the effective shared configuration.
func (s *Shared) Config() Config { return s.cfg }

// Cores returns how many hierarchies have been attached.
func (s *Shared) Cores() int { return s.cores }

// ResetStats clears the shared counters (LLC hit/miss, mesh traffic)
// without touching contents or congestion state.
func (s *Shared) ResetStats() {
	s.LLC.ResetStats()
	s.Mesh.ResetStats()
}

// AttachCore builds the private hierarchy (L1-I, L1-D, prefetch buffer,
// in-flight tracker) of core coreID over this shared uncore. The coreID
// becomes the core's address-space tag on all shared-LLC traffic.
func (s *Shared) AttachCore(coreID int) *Hierarchy {
	s.cores++
	pool := make([]flight, flightReserve)
	free := make([]*flight, flightReserve)
	for i := range pool {
		free[i] = &pool[i]
	}
	return &Hierarchy{
		cfg:       s.cfg,
		shared:    s,
		asid:      isa.Addr(coreID) << asidShift,
		L1I:       cache.MustNew("L1-I", s.cfg.L1ISizeBytes, s.cfg.L1IWays),
		L1D:       cache.MustNew("L1-D", s.cfg.L1DSizeBytes, s.cfg.L1DWays),
		LLC:       s.LLC,
		PrefBuf:   cache.NewPrefetchBuffer(s.cfg.PrefetchBufferEntries),
		Mesh:      s.Mesh,
		inflight:  newFlightTable(),
		ordered:   make([]*flight, 0, flightReserve),
		nextReady: noInflight,
		arrivals:  make([]Arrival, 0, flightReserve),
		free:      free,
	}
}

// Hierarchy is one core's view of the memory system: private L1s and
// prefetch buffer over the (possibly multi-core) shared LLC and mesh.
type Hierarchy struct {
	cfg    Config
	shared *Shared
	// asid tags this core's LLC traffic (see asidShift).
	asid isa.Addr

	L1I     *cache.Cache
	L1D     *cache.Cache
	LLC     *cache.Cache
	PrefBuf *cache.PrefetchBuffer
	Mesh    *noc.Mesh

	// inflight indexes the outstanding instruction fills by block.
	inflight flightTable
	// ordered is the same fill population as inflight, as a min-heap on
	// (ready, block) — a fill's completion cycle never changes after
	// issue, so PollArrivals pops completions in exactly delivery order
	// instead of walking and sorting the whole index.
	ordered []*flight
	// nextReady is the earliest completion cycle among in-flight fills
	// (^0 when none): PollArrivals is called every cycle, and the
	// watermark turns the common no-arrival case into one comparison
	// instead of a heap inspection.
	nextReady uint64
	// arrivals is PollArrivals' reusable scratch buffer.
	arrivals []Arrival
	// free holds flights PollArrivals has retired, for trackFill to
	// reuse, starting with flightReserve fresh ones: in steady state a
	// fill allocates nothing. The heap orders
	// flights by (ready, block), never by identity, so reuse cannot
	// change the delivery order.
	free []*flight

	stats Stats
}

// noInflight is the nextReady watermark value when nothing is in flight.
const noInflight = ^uint64(0)

type flight struct {
	block    isa.Addr
	ready    uint64
	demand   bool
	prefetch bool
}

// New builds a single-core hierarchy from cfg (zero fields defaulted):
// a Shared of its own with one core attached — the N=1 special case of
// the scenario layout.
func New(cfg Config) *Hierarchy {
	return NewShared(cfg).AttachCore(0)
}

// Shared returns the shared uncore this hierarchy is attached to.
func (h *Hierarchy) Shared() *Shared { return h.shared }

// trackFill registers a new in-flight fill, drawing its flight from the
// free list, and lowers the arrival watermark if this fill completes
// before every other outstanding one.
func (h *Hierarchy) trackFill(block isa.Addr, ready uint64, demand bool) {
	var fl *flight
	if n := len(h.free); n > 0 {
		fl = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		fl = new(flight)
	}
	*fl = flight{block: block, ready: ready, demand: demand, prefetch: !demand}
	h.inflight.put(fl)
	h.heapPush(fl)
	if fl.ready < h.nextReady {
		h.nextReady = fl.ready
	}
}

// flightBefore orders the arrival heap: completion cycle, ties broken by
// block address — the delivery order PollArrivals guarantees.
func flightBefore(a, b *flight) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.block < b.block
}

func (h *Hierarchy) heapPush(fl *flight) {
	h.ordered = append(h.ordered, fl)
	i := len(h.ordered) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !flightBefore(h.ordered[i], h.ordered[p]) {
			break
		}
		h.ordered[i], h.ordered[p] = h.ordered[p], h.ordered[i]
		i = p
	}
}

func (h *Hierarchy) heapPop() *flight {
	top := h.ordered[0]
	last := len(h.ordered) - 1
	h.ordered[0] = h.ordered[last]
	h.ordered[last] = nil
	h.ordered = h.ordered[:last]
	n := len(h.ordered)
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && flightBefore(h.ordered[l], h.ordered[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && flightBefore(h.ordered[r], h.ordered[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ordered[i], h.ordered[small] = h.ordered[small], h.ordered[i]
		i = small
	}
	return top
}

// Config returns the effective configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats clears this core's counters (and the shared LLC/mesh
// counters, which per-core results never read) at the warmup/
// measurement boundary without touching cache contents or in-flight
// state.
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{}
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.shared.ResetStats()
	h.PrefBuf.HitsCount = 0
	h.PrefBuf.EvictedUnused = 0
}

// llcFill performs a lookup in the shared LLC (and fill from memory on
// miss), returning the completion cycle and source. The access is
// tagged with this core's ASID, and both the mesh round trip and the
// LLC occupancy are charged against state every attached core shares —
// this is where multi-core contention enters the model.
func (h *Hierarchy) llcFill(now uint64, block isa.Addr) (uint64, Source) {
	lat := h.cfg.LLCLatencyCycles + h.Mesh.Traverse(now)
	tagged := h.asid | block
	if h.LLC.Access(tagged) {
		return now + uint64(lat), SrcLLC
	}
	h.LLC.Insert(tagged)
	return now + uint64(lat+h.cfg.MemLatencyCycles), SrcMemory
}

// FetchBlock is a demand instruction fetch for the block containing addr.
// It returns the cycle at which the block is usable and where it came
// from. Hits in the L1-I or prefetch buffer are usable immediately (the
// L1 pipeline latency is hidden by the fetch pipeline).
func (h *Hierarchy) FetchBlock(now uint64, addr isa.Addr) (uint64, Source) {
	block := addr.Block()
	h.stats.DemandFetches++

	if h.L1I.Access(block) {
		h.stats.DemandL1IHits++
		return now, SrcL1
	}
	if h.PrefBuf.Take(block) {
		// Promote into the L1-I on first use.
		h.L1I.Insert(block)
		h.stats.DemandPrefBufHits++
		return now, SrcPrefetchBuffer
	}
	if fl, ok := h.inflight.get(block); ok {
		// Join the outstanding fill; only residual latency is exposed.
		if fl.prefetch && !fl.demand {
			h.stats.PrefetchUsefulInflight++
		}
		fl.demand = true
		h.stats.DemandInflight++
		ready := fl.ready
		if ready < now {
			ready = now
		}
		return ready, SrcInflight
	}
	ready, src := h.llcFill(now, block)
	if src == SrcLLC {
		h.stats.DemandLLCHits++
	} else {
		h.stats.DemandMemFills++
	}
	h.trackFill(block, ready, true)
	return ready, src
}

// PrefetchBlock issues an instruction prefetch probe for the block
// containing addr. Redundant probes (block already present or in flight)
// are filtered and generate no traffic. It returns the cycle the block
// will be (or already is) available, and whether a new fill was started.
func (h *Hierarchy) PrefetchBlock(now uint64, addr isa.Addr) (uint64, bool) {
	block := addr.Block()
	if h.L1I.Contains(block) || h.PrefBuf.Contains(block) {
		h.stats.PrefetchesRedundant++
		return now, false
	}
	if fl, ok := h.inflight.get(block); ok {
		h.stats.PrefetchesRedundant++
		ready := fl.ready
		if ready < now {
			ready = now
		}
		return ready, false
	}
	ready, src := h.llcFill(now, block)
	if src == SrcLLC {
		h.stats.PrefetchLLCHits++
	} else {
		h.stats.PrefetchMemFills++
	}
	h.stats.PrefetchesIssued++
	h.trackFill(block, ready, false)
	return ready, true
}

// BlockResidency reports how quickly an instruction block can be examined
// by a predecoder-driven resolution (Boomerang's reactive BTB fill): a
// block already in the L1-I or prefetch buffer costs only the L1 latency.
// Otherwise a fill is started (or joined) and its completion returned.
func (h *Hierarchy) BlockResidency(now uint64, addr isa.Addr) uint64 {
	block := addr.Block()
	if h.L1I.Contains(block) || h.PrefBuf.Contains(block) {
		return now + uint64(h.cfg.L1LatencyCycles)
	}
	ready, _ := h.PrefetchBlock(now, block)
	return ready
}

// PollArrivals materializes all instruction-side fills that have
// completed by now: demand fills go into the L1-I, prefetch fills into
// the prefetch buffer. Arrivals are returned in completion order so the
// caller (e.g. Shotgun's predecoder) can process them. The returned
// slice is reused by the next call; callers must consume it immediately
// and not retain it.
func (h *Hierarchy) PollArrivals(now uint64) []Arrival {
	if now < h.nextReady {
		// Next-arrival watermark: nothing can have completed yet, so the
		// per-cycle call costs one comparison instead of a map walk.
		return nil
	}
	out := h.arrivals[:0]
	// Heap pops come out in (ready, block) order — already the delivery
	// order the sorted map walk used to produce.
	for len(h.ordered) > 0 && h.ordered[0].ready <= now {
		fl := h.heapPop()
		out = append(out, Arrival{Block: fl.block, Ready: fl.ready, Demand: fl.demand})
		h.inflight.remove(fl.block)
		h.free = append(h.free, fl)
	}
	if len(h.ordered) > 0 {
		h.nextReady = h.ordered[0].ready
	} else {
		h.nextReady = noInflight
	}
	h.arrivals = out
	if len(out) == 0 {
		return nil
	}
	for _, a := range out {
		if a.Demand {
			h.L1I.Insert(a.Block)
		} else {
			h.PrefBuf.Insert(a.Block)
		}
	}
	return out
}

// InflightCount returns the number of outstanding instruction fills.
func (h *Hierarchy) InflightCount() int { return h.inflight.n }

// NextArrival returns the earliest cycle at which an in-flight
// instruction fill can complete, or NoArrival when nothing is in
// flight. It is the hierarchy's contribution to a core's next-event
// deadline: PollArrivals is a guaranteed no-op at every cycle strictly
// before this watermark, so an event-driven caller may skip those
// cycles without observing different arrivals. The watermark is
// conservative in the safe direction — it may be earlier than the true
// next completion (trackFill only lowers it), never later.
func (h *Hierarchy) NextArrival() uint64 { return h.nextReady }

// NoArrival is NextArrival's value when no instruction fill is in
// flight.
const NoArrival = noInflight

// WarmLLC touches only the shared LLC for one fetched block — the
// skim-mode fast-forward's warming. The LLC is the one structure whose
// content cannot be rebuilt inside a bounded functional-warming window
// (its block capacity exceeds any affordable window), so a skimmed gap
// keeps it tracking the stream while every small structure (L1s, BTBs,
// predictor) is left to the window to repair.
func (h *Hierarchy) WarmLLC(addr isa.Addr) {
	tagged := h.asid | addr.Block()
	if !h.LLC.Access(tagged) {
		h.LLC.Insert(tagged)
	}
}

// WarmFetch is the functional-warming counterpart of FetchBlock: it
// updates cache contents (L1-I presence/LRU, prefetch-buffer promotion,
// LLC occupancy under this core's ASID) exactly as a demand fetch would,
// but charges no time — no mesh traversal, no in-flight tracking, no
// hierarchy stats (a promotion still counts in PrefBuf.HitsCount).
// Sampling's fast-forward path uses it to keep microarchitectural cache
// state warm between detailed units without paying the timed model.
func (h *Hierarchy) WarmFetch(addr isa.Addr) {
	block := addr.Block()
	if h.L1I.Access(block) {
		return
	}
	if h.PrefBuf.Take(block) {
		h.L1I.Insert(block)
		return
	}
	tagged := h.asid | block
	if !h.LLC.Access(tagged) {
		h.LLC.Insert(tagged)
	}
	h.L1I.Insert(block)
}

// WarmData is WarmFetch for the data side: L1-D and LLC contents move as
// under DataAccess, with no timing, traffic, or stats.
func (h *Hierarchy) WarmData(addr isa.Addr) {
	block := addr.Block()
	if h.L1D.Access(block) {
		return
	}
	tagged := h.asid | block
	if !h.LLC.Access(tagged) {
		h.LLC.Insert(tagged)
	}
	h.L1D.Insert(block)
}

// DataAccess is a load/store to the data side. It returns the cycle the
// data is available and whether the L1-D hit. Misses traverse the mesh to
// the LLC (sharing bandwidth with instruction prefetches — the coupling
// behind Figure 11) and fill both levels.
func (h *Hierarchy) DataAccess(now uint64, addr isa.Addr) (uint64, bool) {
	block := addr.Block()
	h.stats.DataAccesses++
	if h.L1D.Access(block) {
		h.stats.DataL1DHits++
		return now, true
	}
	ready, src := h.llcFill(now, block)
	if src == SrcLLC {
		h.stats.DataLLCHits++
	} else {
		h.stats.DataMemFills++
	}
	h.L1D.Insert(block)
	h.stats.DataFillCycles += ready - now
	h.stats.DataFillSamples++
	return ready, false
}
