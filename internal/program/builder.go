package program

import (
	"fmt"
	"math"
	"sort"

	"shotgun/internal/isa"
	"shotgun/internal/xrand"
)

// GenParams parameterizes synthetic program generation. The six workload
// profiles in package workload are instances of this struct tuned so that
// the resulting instruction and branch working sets reproduce the relative
// behaviour of the paper's commercial workloads (Table 1, Figures 3 and 4).
type GenParams struct {
	// NumAppFuncs and NumKernelFuncs set the code-base scale; together
	// with the function size distribution they determine the total
	// instruction footprint.
	NumAppFuncs    int
	NumKernelFuncs int
	// TrapEntryFrac is the fraction of kernel functions that are trap
	// entries (the rest are kernel-internal callees).
	TrapEntryFrac float64

	// AppLayers / KernelLayers bound call depth (layered acyclic calls).
	AppLayers    int
	KernelLayers int
	// LayerDecay sets how function counts shrink per layer: the share of
	// functions in layer L is proportional to LayerDecay^L. Leaves
	// (layer 0) therefore dominate, like real utility code.
	LayerDecay float64

	// FnBlocksLogMean / FnBlocksLogSigma give the lognormal distribution
	// of function sizes measured in static basic blocks; MaxFnBlocks
	// caps the tail (Validate refuses a function of more than
	// MaxFuncBlocks).
	FnBlocksLogMean  float64
	FnBlocksLogSigma float64
	MaxFnBlocks      int

	// BlockInstrMean is the mean number of instructions per static basic
	// block (geometrically distributed, capped at isa.MaxBlockInstrs).
	BlockInstrMean float64

	// Terminator mix for non-final blocks. Remaining probability mass
	// falls through (BranchNone). CondFrac branches steer local control
	// flow; CallFrac/TrapFrac/JumpFrac/EarlyRetFrac are the global ones.
	CondFrac     float64
	CallFrac     float64
	JumpFrac     float64
	TrapFrac     float64
	EarlyRetFrac float64

	// LoopFrac is the fraction of conditional branches that are loop
	// back-edges; LoopMeanIters their mean trip count.
	LoopFrac      float64
	LoopMeanIters float64

	// LeafyFrac is the fraction of functions that are compute-heavy
	// ("leafy"): roughly twice as large, with few call sites and more
	// loops. Leafy functions produce the long spatial regions in the
	// tail of the paper's Figure 3 distribution.
	LeafyFrac float64

	// CondSkipMax / JumpSkipMax bound forward displacement (in blocks)
	// of local branches — the short offsets of Section 3.1.
	CondSkipMax int
	JumpSkipMax int

	// ZipfS is the callee-popularity skew. Smaller values flatten the
	// popularity curve and blow up the dynamic branch working set (the
	// Oracle/DB2 regime); larger values concentrate execution in a few
	// hot functions (the Nutch regime).
	ZipfS float64

	// FnGapBlocksMax pads functions apart by up to this many cache
	// blocks, decorrelating cache-set placement.
	FnGapBlocksMax int

	// AppBase / KernelBase place the two code images in the 48-bit VA.
	AppBase    isa.Addr
	KernelBase isa.Addr
}

// setDefaults fills zero-valued fields with sane defaults so tests can
// specify only what they care about.
func (g *GenParams) setDefaults() {
	if g.NumAppFuncs == 0 {
		g.NumAppFuncs = 200
	}
	if g.NumKernelFuncs == 0 {
		g.NumKernelFuncs = 40
	}
	if g.TrapEntryFrac == 0 {
		g.TrapEntryFrac = 0.25
	}
	if g.AppLayers == 0 {
		g.AppLayers = 6
	}
	if g.KernelLayers == 0 {
		g.KernelLayers = 3
	}
	if g.LayerDecay == 0 {
		g.LayerDecay = 0.78
	}
	if g.FnBlocksLogMean == 0 {
		g.FnBlocksLogMean = math.Log(9)
	}
	if g.FnBlocksLogSigma == 0 {
		g.FnBlocksLogSigma = 0.8
	}
	if g.MaxFnBlocks == 0 {
		g.MaxFnBlocks = 120
	}
	if g.BlockInstrMean == 0 {
		g.BlockInstrMean = 5.5
	}
	if g.CondFrac == 0 {
		g.CondFrac = 0.58
	}
	if g.CallFrac == 0 {
		g.CallFrac = 0.18
	}
	if g.JumpFrac == 0 {
		g.JumpFrac = 0.05
	}
	if g.TrapFrac == 0 {
		g.TrapFrac = 0.01
	}
	if g.EarlyRetFrac == 0 {
		g.EarlyRetFrac = 0.02
	}
	if g.LoopFrac == 0 {
		g.LoopFrac = 0.18
	}
	if g.LoopMeanIters == 0 {
		g.LoopMeanIters = 5
	}
	if g.LeafyFrac == 0 {
		g.LeafyFrac = 0.35
	}
	if g.CondSkipMax == 0 {
		g.CondSkipMax = 6
	}
	if g.JumpSkipMax == 0 {
		g.JumpSkipMax = 8
	}
	if g.ZipfS == 0 {
		g.ZipfS = 0.9
	}
	if g.FnGapBlocksMax == 0 {
		g.FnGapBlocksMax = 2
	}
	if g.AppBase == 0 {
		g.AppBase = 0x0000_4000_0000
	}
	if g.KernelBase == 0 {
		g.KernelBase = 0x7f00_0000_0000
	}
}

// Generate builds a synthetic program from params, deterministically in
// seed. The returned program always passes Validate.
func Generate(params GenParams, seed uint64) (*Program, error) {
	params.setDefaults()
	if params.NumAppFuncs < params.AppLayers {
		return nil, fmt.Errorf("program: need at least one app function per layer (%d < %d)",
			params.NumAppFuncs, params.AppLayers)
	}
	rng := xrand.New(seed)
	b := &builder{p: params, rng: rng, prog: &Program{}}
	b.build()
	if err := b.prog.Validate(); err != nil {
		return nil, fmt.Errorf("program: generated program invalid: %w", err)
	}
	return b.prog, nil
}

// MustGenerate is Generate for callers with static parameters (profiles,
// examples, tests) where failure indicates a bug.
func MustGenerate(params GenParams, seed uint64) *Program {
	p, err := Generate(params, seed)
	if err != nil {
		panic(err)
	}
	return p
}

type builder struct {
	p    GenParams
	rng  *xrand.Source
	prog *Program

	// popRank[id] is the popularity rank of function id within its role
	// group (0 = hottest). Callee selection Zipf-samples ranks.
	popRank []int

	// calleeWindows[g][L] lists, hottest first, the functions a layer-L
	// function of role group g may call (see calleeCandidates), and
	// rankedTraps lists trap entries hottest-first. Both are computed
	// once by prepareCandidates and shared read-only by every function
	// that draws from them: fillBody only indexes the slices.
	calleeWindows [2][][]FuncID
	rankedTraps   []FuncID

	// chunk is the scratch space fillBody carves function bodies from;
	// allocSlab then copies every body into the program's one slab.
	chunk []StaticBlock

	// zipf shares the callee and trap popularity tables among the
	// functions of this build only; they go with the builder.
	zipf xrand.ZipfCache
}

// chunkBlocks sizes fillBody's scratch chunks: large enough that a
// program takes few of them, small enough that the last one's unused
// tail is a fraction of the slab.
const chunkBlocks = 1 << 14

func (b *builder) setRank(id FuncID, rank int) {
	for len(b.popRank) <= int(id) {
		b.popRank = append(b.popRank, 0)
	}
	b.popRank[id] = rank
}

func (b *builder) build() {

	// --- Function skeletons: IDs, roles, layers, popularity. ---
	appIDs := b.makeGroup(b.p.NumAppFuncs, b.p.AppLayers, RoleApp)

	numEntries := int(math.Max(1, math.Round(b.p.TrapEntryFrac*float64(b.p.NumKernelFuncs))))
	numInternal := b.p.NumKernelFuncs - numEntries
	b.makeGroup(numInternal, b.p.KernelLayers, RoleKernelInternal)
	entryIDs := b.makeEntries(numEntries, b.p.KernelLayers)

	b.prog.AppFuncs = appIDs
	b.prog.TrapEntries = entryIDs

	// --- Bodies: blocks, terminators, call targets. ---
	b.prepareCandidates()
	for _, f := range b.prog.Funcs {
		b.fillBody(f)
	}
	b.allocSlab()

	// --- Layout: assign contiguous addresses with gaps. ---
	b.layout()
}

// makeGroup creates n functions of the given role spread across layers
// with geometric decay, guaranteeing every layer above 0 has candidates
// below it.
func (b *builder) makeGroup(n, layers int, role Role) []FuncID {
	if n == 0 {
		return nil
	}
	ids := make([]FuncID, 0, n)
	// Layer shares ~ decay^L, with layer 0 forced non-empty.
	weights := make([]float64, layers)
	sum := 0.0
	for l := 0; l < layers; l++ {
		weights[l] = math.Pow(b.p.LayerDecay, float64(l))
		sum += weights[l]
	}
	for i := 0; i < n; i++ {
		layer := 0
		if i >= layers { // the first `layers` functions seed one per layer
			u := b.rng.Float64() * sum
			for l := 0; l < layers; l++ {
				u -= weights[l]
				if u < 0 {
					layer = l
					break
				}
			}
		} else {
			layer = i % layers
		}
		id := FuncID(len(b.prog.Funcs))
		f := &Function{ID: id, Role: role, Layer: layer}
		b.prog.Funcs = append(b.prog.Funcs, f)
		ids = append(ids, id)
	}
	// Popularity: a random permutation of the group.
	perm := b.permute(len(ids))
	for r, idx := range perm {
		b.setRank(ids[idx], r)
	}
	return ids
}

// makeEntries creates trap-entry functions one layer above all
// kernel-internal layers.
func (b *builder) makeEntries(n, kernelLayers int) []FuncID {
	ids := make([]FuncID, 0, n)
	for i := 0; i < n; i++ {
		id := FuncID(len(b.prog.Funcs))
		f := &Function{ID: id, Role: RoleTrapEntry, Layer: kernelLayers}
		b.prog.Funcs = append(b.prog.Funcs, f)
		ids = append(ids, id)
	}
	perm := b.permute(len(ids))
	for r, idx := range perm {
		b.setRank(ids[idx], r)
	}
	return ids
}

func (b *builder) permute(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := b.rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// calleeLayerWindow bounds how far down the layer stack a call may jump.
// Restricting calls to nearby layers makes call trees genuinely deep
// (layered software descends through abstraction levels) instead of
// collapsing onto the leaf layers.
const calleeLayerWindow = 3

// prepareCandidates computes every callee window once, after the
// skeletons exist. Each role group's callable functions (trap entries
// excluded) are sorted by popularity; popularity ranks are unique within
// a group, so the order is unique. A function's candidates depend only on
// its role group and layer, so one filter pass per (group, layer) yields
// exactly what a per-function filter would: every candidate sits strictly
// below the caller's layer, so a caller is never in its own window.
func (b *builder) prepareCandidates() {
	var ranked [2][]FuncID
	var maxLayer [2]int
	for _, g := range b.prog.Funcs {
		grp := roleGroup(g.Role)
		maxLayer[grp] = max(maxLayer[grp], g.Layer)
		if g.Role != RoleTrapEntry {
			ranked[grp] = append(ranked[grp], g.ID)
		}
	}
	for grp, ids := range ranked {
		sort.Slice(ids, func(i, j int) bool { return b.popRank[ids[i]] < b.popRank[ids[j]] })
		windows := make([][]FuncID, maxLayer[grp]+1)
		for layer := range windows {
			windows[layer] = b.layerRange(ids, layer-calleeLayerWindow, layer)
			if len(windows[layer]) == 0 {
				windows[layer] = b.layerRange(ids, 0, layer)
			}
		}
		b.calleeWindows[grp] = windows
	}
	b.rankedTraps = append([]FuncID(nil), b.prog.TrapEntries...)
	sort.Slice(b.rankedTraps, func(i, j int) bool {
		return b.popRank[b.rankedTraps[i]] < b.popRank[b.rankedTraps[j]]
	})
}

// layerRange returns, in ranked order, the functions of ranked whose
// layer lies in [lo, hi), or nil if there are none.
func (b *builder) layerRange(ranked []FuncID, lo, hi int) []FuncID {
	var out []FuncID
	for _, id := range ranked {
		if l := b.prog.Funcs[id].Layer; l >= lo && l < hi {
			out = append(out, id)
		}
	}
	return out
}

// calleeCandidates returns the functions f may legally call, hottest
// first, so a Zipf draw over the slice index yields popularity-skewed
// call graphs. Candidates come from the window of layers directly below
// f; if that window is empty, any lower layer is allowed. The slice is
// shared by every function of f's role group and layer; callers must
// not mutate it.
func (b *builder) calleeCandidates(f *Function) []FuncID {
	return b.calleeWindows[roleGroup(f.Role)][f.Layer]
}

// trapCandidates returns trap entries hottest first.
func (b *builder) trapCandidates() []FuncID {
	return b.rankedTraps
}

func (b *builder) fnNumBlocks(logBoost float64) int {
	n := int(math.Round(b.rng.LogNormal(b.p.FnBlocksLogMean+logBoost, b.p.FnBlocksLogSigma)))
	if n < 2 {
		n = 2
	}
	if n > b.p.MaxFnBlocks {
		n = b.p.MaxFnBlocks
	}
	return n
}

func (b *builder) blockInstrs() int {
	p := 1 / b.p.BlockInstrMean
	n := 1 + b.rng.Geometric(p)
	if n > isa.MaxBlockInstrs {
		n = isa.MaxBlockInstrs
	}
	return n
}

// condBias draws a static taken-probability from a mixture dominated by
// strongly biased branches (easy for TAGE), a moderately biased slice,
// and a small hard slice that produces the residual misprediction rate
// (a few mispredictions per kilo-instruction, as on real server code).
func (b *builder) condBias() float64 {
	u := b.rng.Float64()
	switch {
	case u < 0.62: // rarely taken
		return 0.01 + 0.05*b.rng.Float64()
	case u < 0.90: // mostly taken
		return 0.94 + 0.05*b.rng.Float64()
	case u < 0.97: // moderately biased
		if b.rng.Bool(0.5) {
			return 0.10 + 0.10*b.rng.Float64()
		}
		return 0.80 + 0.10*b.rng.Float64()
	default: // hard to predict
		return 0.40 + 0.20*b.rng.Float64()
	}
}

func (b *builder) fillBody(f *Function) {
	// Leafy (compute-heavy) functions: larger bodies, few calls, more
	// loops. Glue functions: normal size, call-dense.
	leafy := b.rng.Bool(b.p.LeafyFrac)
	condFrac, callFrac, trapFrac, loopFrac := b.p.CondFrac, b.p.CallFrac, b.p.TrapFrac, b.p.LoopFrac
	sizeBoost := 0.0
	if leafy {
		sizeBoost = 0.7 // e^0.7 ~ 2x block count
		condFrac += 0.75 * callFrac
		callFrac *= 0.25
		trapFrac *= 0.25
		loopFrac *= 1.4
	}

	nBlocks := b.fnNumBlocks(sizeBoost)
	callees := b.calleeCandidates(f)
	var calleeZipf *xrand.Zipf
	if len(callees) > 0 {
		calleeZipf = b.zipf.NewZipf(b.rng, len(callees), b.p.ZipfS)
	}
	traps := b.trapCandidates()
	var trapZipf *xrand.Zipf
	if len(traps) > 0 && f.Role == RoleApp {
		trapZipf = b.zipf.NewZipf(b.rng, len(traps), b.p.ZipfS)
	}

	if len(b.chunk)+nBlocks > cap(b.chunk) {
		b.chunk = make([]StaticBlock, 0, max(chunkBlocks, nBlocks))
	}
	b.chunk = b.chunk[:len(b.chunk)+nBlocks]
	f.Blocks = b.chunk[len(b.chunk)-nBlocks:]
	var off uint32
	// loopBarrier prevents loop back-edges from overlapping: each new
	// back-edge may only target blocks after the previous back-edge.
	// Overlapping loops would compound multiplicatively and produce
	// unbounded per-invocation execution.
	loopBarrier := 0
	for i := 0; i < nBlocks; i++ {
		blk := StaticBlock{Off: off, NumInstr: uint8(b.blockInstrs()), Callee: NoFunc}
		off += uint32(blk.NumInstr)
		if i == nBlocks-1 {
			blk.Kind = f.RetKind()
			f.Blocks[i] = blk
			break
		}
		u := b.rng.Float64()
		switch {
		case u < condFrac:
			blk.Kind = isa.BranchCond
			if i-loopBarrier >= 1 && b.rng.Bool(loopFrac) {
				// Loop back-edge: jump back 1..4 blocks, staying after
				// the previous loop's back-edge.
				back := 1 + b.rng.Intn(min(4, i-loopBarrier))
				blk.TargetIdx = uint16(i - back)
				blk.IsLoop = true
				blk.param = b.p.LoopMeanIters * (0.5 + b.rng.Float64())
				blk.LoopFixed = b.rng.Bool(0.7)
				loopBarrier = i + 1
			} else {
				// Forward skip of 1..CondSkipMax blocks.
				skip := 1 + b.rng.Intn(b.p.CondSkipMax)
				blk.TargetIdx = uint16(min(i+1+skip, nBlocks-1))
				blk.param = b.condBias()
			}
		case u < condFrac+callFrac && calleeZipf != nil:
			blk.Kind = isa.BranchCall
			blk.Callee = callees[calleeZipf.Next()]
		case u < condFrac+callFrac+b.p.JumpFrac:
			blk.Kind = isa.BranchJump
			skip := 1 + b.rng.Intn(b.p.JumpSkipMax)
			blk.TargetIdx = uint16(min(i+skip, nBlocks-1))
		case u < condFrac+callFrac+b.p.JumpFrac+trapFrac && trapZipf != nil:
			blk.Kind = isa.BranchTrap
			blk.Callee = traps[trapZipf.Next()]
		case u < condFrac+callFrac+b.p.JumpFrac+trapFrac+b.p.EarlyRetFrac && i > 0:
			blk.Kind = f.RetKind()
		default:
			blk.Kind = isa.BranchNone
		}
		f.Blocks[i] = blk
	}
}

// allocSlab moves every function's blocks into one slab of exactly the
// program's block count, so the program holds its blocks in a single
// allocation, and caps each function's sub-slice at its own length.
func (b *builder) allocSlab() {
	n := 0
	for _, f := range b.prog.Funcs {
		n += len(f.Blocks)
	}
	slab := make([]StaticBlock, 0, n)
	for _, f := range b.prog.Funcs {
		at := len(slab)
		slab = append(slab, f.Blocks...)
		f.Blocks = slab[at:len(slab):len(slab)]
	}
}

// layout assigns contiguous addresses: application functions from AppBase,
// kernel functions (entries and internals) from KernelBase, in a shuffled
// order so popularity does not correlate with placement.
func (b *builder) layout() {
	var app, kern []*Function
	for _, f := range b.prog.Funcs {
		if f.Role == RoleApp {
			app = append(app, f)
		} else {
			kern = append(kern, f)
		}
	}
	b.place(app, b.p.AppBase)
	b.place(kern, b.p.KernelBase)
}

func (b *builder) place(funcs []*Function, base isa.Addr) {
	perm := b.permute(len(funcs))
	pc := base
	for _, idx := range perm {
		f := funcs[idx]
		f.entry = pc
		pc = f.End()
		// Align the next function to a block boundary plus a small gap.
		gap := b.rng.Intn(b.p.FnGapBlocksMax + 1)
		pc = (pc + isa.BlockBytes - 1).Block() + isa.Addr(gap*isa.BlockBytes)
	}
}
