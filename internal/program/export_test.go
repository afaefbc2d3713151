package program

import (
	"sort"

	"shotgun/internal/xrand"
)

// CalleeCandidateLists generates the program of (params, seed) and
// returns, per function ID, the callee candidates the builder handed
// fillBody and the ones the reference filter computes for the same
// function.
func CalleeCandidateLists(params GenParams, seed uint64) (got, want [][]FuncID) {
	params.setDefaults()
	b := &builder{p: params, rng: xrand.New(seed), prog: &Program{}}
	b.build()
	ranked := refRankedByGroup(b)
	for _, f := range b.prog.Funcs {
		got = append(got, b.calleeCandidates(f))
		want = append(want, refCalleeCandidates(b, ranked[roleGroup(f.Role)], f))
	}
	return got, want
}

// refRankedByGroup lists each role group's callable functions (trap
// entries excluded) hottest-first, as the builder used to keep them.
func refRankedByGroup(b *builder) (ranked [2][]FuncID) {
	for _, g := range b.prog.Funcs {
		if g.Role != RoleTrapEntry {
			ranked[roleGroup(g.Role)] = append(ranked[roleGroup(g.Role)], g.ID)
		}
	}
	for _, ids := range ranked {
		sort.Slice(ids, func(i, j int) bool { return b.popRank[ids[i]] < b.popRank[ids[j]] })
	}
	return ranked
}

// refCalleeCandidates is the per-function filter calleeCandidates used
// to run over its role group's ranked list: keep the functions in the
// layer window below f (f itself excluded), falling back to every lower
// layer when the window is empty.
func refCalleeCandidates(b *builder, ranked []FuncID, f *Function) []FuncID {
	pick := func(minLayer int) []FuncID {
		var out []FuncID
		for _, id := range ranked {
			g := b.prog.Funcs[id]
			if id == f.ID {
				continue
			}
			if g.Layer < f.Layer && g.Layer >= minLayer {
				out = append(out, id)
			}
		}
		return out
	}
	out := pick(f.Layer - calleeLayerWindow)
	if len(out) == 0 {
		out = pick(0)
	}
	return out
}
