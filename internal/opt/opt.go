// Package opt implements technology-independent AIG optimisation passes
// applied before mapping, mirroring the pre-mapping clean-up of standard
// ABC flows: dangling-node sweeping and delay-oriented AND-tree balancing.
// The paper maps unoptimised subject graphs for its main experiments, so
// these passes are optional in the flow — the ablation benchmarks measure
// their effect on mapping QoR.
package opt

import (
	"math/rand"
	"sort"

	"slap/internal/aig"
)

// Sweep rebuilds the graph keeping only logic reachable from the primary
// outputs, removing dangling nodes. The result is functionally identical;
// PI order and count are preserved (unused PIs stay).
func Sweep(g *aig.AIG) *aig.AIG {
	out := aig.New(g.Name)
	piLits := make([]aig.Lit, g.NumPIs())
	for i := range piLits {
		piLits[i] = out.AddPI(g.PIName(i))
	}
	mapLit := Graft(out, piLits, g)
	for _, po := range g.POs() {
		out.AddPO(po.Name, mapLit(po.Lit))
	}
	return out
}

// Graft copies the logic of g reachable from its primary outputs into
// out, in g's id order, with g's PIs mapped positionally to piLits, and
// returns the map from g's literals to out's; it adds no PO. Structural
// hashing inside out.And dedupes logic out already holds.
func Graft(out *aig.AIG, piLits []aig.Lit, g *aig.AIG) func(aig.Lit) aig.Lit {
	old2new := make([]aig.Lit, g.NumNodes())
	for i := range old2new {
		old2new[i] = ^aig.Lit(0)
	}
	for i, pi := range g.PIs() {
		old2new[pi] = piLits[i]
	}

	// Mark reachable nodes.
	needed := make([]bool, g.NumNodes())
	var stack []uint32
	push := func(n uint32) {
		if g.IsAnd(n) && !needed[n] {
			needed[n] = true
			stack = append(stack, n)
		}
	}
	for _, po := range g.POs() {
		push(po.Lit.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f0, f1 := g.Fanins(n)
		push(f0.Node())
		push(f1.Node())
	}

	// Rebuild in topological (id) order.
	mapLit := func(l aig.Lit) aig.Lit {
		if l.Node() == 0 {
			return l // constants map to themselves
		}
		return old2new[l.Node()].NotIf(l.IsCompl())
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !needed[n] {
			continue
		}
		f0, f1 := g.Fanins(n)
		old2new[n] = out.And(mapLit(f0), mapLit(f1))
	}
	return mapLit
}

// Balance rebuilds the graph with depth-minimised AND trees: maximal
// conjunction chains are collected and re-associated so that
// shallower-arriving operands combine last (Huffman-style pairing on
// levels), reducing the subject-graph depth that delay-oriented mapping
// starts from. The result is functionally equivalent.
func Balance(g *aig.AIG) *aig.AIG {
	return balanceWith(g, buildBalanced)
}

// BalanceSeeded is Balance with a seeded tie-break: operands at equal level
// are paired in a pseudo-random (but seed-deterministic) order instead of
// collection order. The result is functionally equivalent to Balance and
// still depth-minimal per tree, but structurally distinct for different
// seeds — exactly the diversity internal/choice wants when it grafts
// several variants into one choice view.
func BalanceSeeded(g *aig.AIG, seed int64) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	return balanceWith(g, func(out *aig.AIG, ls []aig.Lit, levelOf func(aig.Lit) int32) aig.Lit {
		if len(ls) > 1 {
			ls = append([]aig.Lit(nil), ls...)
			rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
		}
		return buildBalanced(out, ls, levelOf)
	})
}

func balanceWith(g *aig.AIG, build func(*aig.AIG, []aig.Lit, func(aig.Lit) int32) aig.Lit) *aig.AIG {
	out := aig.New(g.Name)
	old2new := make([]aig.Lit, g.NumNodes())
	for i := range old2new {
		old2new[i] = ^aig.Lit(0)
	}
	for i, pi := range g.PIs() {
		old2new[pi] = out.AddPI(g.PIName(i))
	}
	mapLit := func(l aig.Lit) aig.Lit {
		if l.Node() == 0 {
			return l
		}
		return old2new[l.Node()].NotIf(l.IsCompl())
	}

	// refs counts uses so that multi-fanout nodes stay shared (collecting
	// through them would duplicate logic).
	refs := make([]int32, g.NumNodes())
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		f0, f1 := g.Fanins(n)
		refs[f0.Node()]++
		refs[f1.Node()]++
	}
	for _, po := range g.POs() {
		refs[po.Lit.Node()]++
	}

	// collect gathers the leaves of the maximal single-fanout AND tree
	// rooted at n (descending only through non-complemented, single-use
	// AND fanins).
	var collect func(l aig.Lit, leaves *[]aig.Lit)
	collect = func(l aig.Lit, leaves *[]aig.Lit) {
		n := l.Node()
		if !l.IsCompl() && g.IsAnd(n) && refs[n] <= 1 {
			f0, f1 := g.Fanins(n)
			collect(f0, leaves)
			collect(f1, leaves)
			return
		}
		*leaves = append(*leaves, l)
	}

	// levelOf estimates arrival of a rebuilt literal.
	levelOf := func(l aig.Lit) int32 {
		return out.Level(l.Node())
	}

	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		if old2new[n] != ^aig.Lit(0) {
			continue
		}
		// Only balance at tree roots: nodes referenced more than once or
		// feeding a PO or used complemented get rebuilt; interior
		// single-use nodes are absorbed by collect.
		if refs[n] <= 1 && !referencedExternally(g, n) {
			// Will be collected by a parent; still rebuild defensively if
			// nothing collects it (dangling) — keep simple: rebuild below
			// when a parent maps it. Dangling nodes are dropped.
			continue
		}
		var leaves []aig.Lit
		f0, f1 := g.Fanins(n)
		collect(f0, &leaves)
		collect(f1, &leaves)
		old2new[n] = build(out, mapLeaves(leaves, mapLit, g, &old2new, out), levelOf)
	}
	for _, po := range g.POs() {
		l := po.Lit
		if g.IsAnd(l.Node()) && old2new[l.Node()] == ^aig.Lit(0) {
			// A PO-only tree root not caught above (complement polarity or
			// single use): rebuild it now.
			var leaves []aig.Lit
			f0, f1 := g.Fanins(l.Node())
			collect(f0, &leaves)
			collect(f1, &leaves)
			old2new[l.Node()] = build(out, mapLeaves(leaves, mapLit, g, &old2new, out), levelOf)
		}
		out.AddPO(po.Name, mapLit(l))
	}
	return out
}

// referencedExternally reports whether node n drives a PO or has a
// complemented fanout edge (either blocks tree absorption).
func referencedExternally(g *aig.AIG, n uint32) bool {
	if g.Fanout(n) > 1 {
		return true
	}
	if g.HasInvertedFanout(n) {
		return true
	}
	for _, po := range g.POs() {
		if po.Lit.Node() == n {
			return true
		}
	}
	return false
}

// mapLeaves maps collected leaf literals into the new graph, recursively
// rebuilding AND leaves that have not been rebuilt yet.
func mapLeaves(leaves []aig.Lit, mapLit func(aig.Lit) aig.Lit, g *aig.AIG, old2new *[]aig.Lit, out *aig.AIG) []aig.Lit {
	mapped := make([]aig.Lit, 0, len(leaves))
	for _, l := range leaves {
		n := l.Node()
		if g.IsAnd(n) && (*old2new)[n] == ^aig.Lit(0) {
			// Rebuild this subtree plainly (shared node reached before its
			// own balancing turn — preserve structure).
			(*old2new)[n] = rebuildPlain(g, n, old2new, out)
		}
		mapped = append(mapped, mapLit(l))
	}
	return mapped
}

// rebuildPlain copies the cone of n into the new graph without
// re-association.
func rebuildPlain(g *aig.AIG, n uint32, old2new *[]aig.Lit, out *aig.AIG) aig.Lit {
	f0, f1 := g.Fanins(n)
	get := func(l aig.Lit) aig.Lit {
		m := l.Node()
		if m == 0 {
			return l
		}
		if (*old2new)[m] == ^aig.Lit(0) {
			(*old2new)[m] = rebuildPlain(g, m, old2new, out)
		}
		return (*old2new)[m].NotIf(l.IsCompl())
	}
	return out.And(get(f0), get(f1))
}

// buildBalanced combines literals with a Huffman-style policy: repeatedly
// AND the two shallowest operands.
func buildBalanced(out *aig.AIG, ls []aig.Lit, levelOf func(aig.Lit) int32) aig.Lit {
	if len(ls) == 0 {
		return aig.ConstTrue
	}
	work := append([]aig.Lit(nil), ls...)
	for len(work) > 1 {
		sort.SliceStable(work, func(i, j int) bool {
			return levelOf(work[i]) < levelOf(work[j])
		})
		a, b := work[0], work[1]
		work = work[1:]
		work[0] = out.And(a, b)
	}
	return work[0]
}

// Optimize runs the standard pre-mapping pipeline: sweep then balance then
// sweep again (balancing can strand nodes).
func Optimize(g *aig.AIG) *aig.AIG {
	return Sweep(Balance(Sweep(g)))
}
