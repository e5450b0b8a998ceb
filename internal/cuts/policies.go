package cuts

import (
	"fmt"
	"math/rand"

	"slap/internal/aig"
)

// DefaultCutLimit is the per-node cut budget of the vanilla ABC mapper (the
// paper: "Each node stores up to 250 cuts").
const DefaultCutLimit = 250

// DefaultPolicy reproduces the vanilla ABC heuristic: sort cuts by their
// number of leaves, filter dominated cuts, and keep the best Limit cuts.
type DefaultPolicy struct {
	// Limit is the per-node cut budget; zero means DefaultCutLimit.
	Limit int
}

// Process sorts by leaf count, then keeps in place, up to Limit, each cut
// that no kept cut other than the trivial {n} dominates. That equals
// FilterDominatedFor plus truncation: every dominator has fewer leaves (sets
// are distinct, see SortByLeaves), so it sorts earlier, and a dominated cut
// has a minimal dominator, which is kept.
func (p DefaultPolicy) Process(g *aig.AIG, n uint32, cs []Cut) []Cut {
	limit := p.Limit
	if limit == 0 {
		limit = DefaultCutLimit
	}
	SortByLeaves(cs)
	kept := cs[:0]
next:
	for i := range cs {
		c := &cs[i]
		for j := range kept {
			if k := &kept[j]; subsetOf(k, c) && !k.IsTrivial(n) {
				continue next
			}
		}
		kept = append(kept, *c)
		if len(kept) == limit {
			break
		}
	}
	return kept
}

// Name implements Policy.
func (p DefaultPolicy) Name() string { return "abc-default" }

// ParallelSafe implements the ParallelSafe extension: Process is a pure
// per-node function.
func (p DefaultPolicy) ParallelSafe() bool { return true }

// UnlimitedPolicy keeps every enumerated cut, modelling the paper's
// "Unlimited ABC" which disables sorting, dominance filtering and the
// per-node budget. Enumeration is still bounded by MergeCap
// to stay tractable on the largest designs.
type UnlimitedPolicy struct{}

// Process returns the list unchanged.
func (UnlimitedPolicy) Process(g *aig.AIG, n uint32, cs []Cut) []Cut { return cs }

// Name implements Policy.
func (UnlimitedPolicy) Name() string { return "abc-unlimited" }

// ParallelSafe implements the ParallelSafe extension.
func (UnlimitedPolicy) ParallelSafe() bool { return true }

// ShufflePolicy randomly permutes each node's cut list and keeps the first
// Limit cuts without dominance filtering — the design-space exploration
// strategy of paper §III used both for Fig. 1 and to generate training
// mappings of diverse QoR.
//
// The policy is deliberately NOT ParallelSafe: its RNG sequence depends on
// the node visit order, so the enumerator always runs it on the sequential
// path, keeping shuffled mappings reproducible per seed.
type ShufflePolicy struct {
	Rng *rand.Rand
	// Limit is the per-node cut budget; zero means DefaultCutLimit.
	Limit int
}

// Process shuffles and truncates the cut list.
func (p *ShufflePolicy) Process(g *aig.AIG, n uint32, cs []Cut) []Cut {
	p.Rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	limit := p.Limit
	if limit == 0 {
		limit = DefaultCutLimit
	}
	if len(cs) > limit {
		cs = cs[:limit]
	}
	return cs
}

// Name implements Policy.
func (p *ShufflePolicy) Name() string { return "random-shuffle" }

// SingleAttributePolicy sorts cuts by one structural feature (ascending or
// descending) — the single-attribute heuristics the paper evaluated in §III
// and found inconsistent across designs. Feature indexes follow
// FeatureNames.
type SingleAttributePolicy struct {
	Feature    int
	Descending bool
	// Limit is the per-node cut budget; zero means DefaultCutLimit.
	Limit int
}

// Process sorts by the configured attribute, filters dominated cuts and
// truncates, mirroring the vanilla pipeline with a different sort key.
func (p SingleAttributePolicy) Process(g *aig.AIG, n uint32, cs []Cut) []Cut {
	keys := make([]float64, len(cs))
	for i := range cs {
		keys[i] = cs[i].Features(g, n)[p.Feature]
	}
	// Insertion sort keyed by the precomputed feature (stable, small lists).
	for i := 1; i < len(cs); i++ {
		c, k := cs[i], keys[i]
		j := i - 1
		for j >= 0 && ((p.Descending && keys[j] < k) || (!p.Descending && keys[j] > k)) {
			cs[j+1], keys[j+1] = cs[j], keys[j]
			j--
		}
		cs[j+1], keys[j+1] = c, k
	}
	cs = FilterDominatedFor(n, cs)
	limit := p.Limit
	if limit == 0 {
		limit = DefaultCutLimit
	}
	if len(cs) > limit {
		cs = cs[:limit]
	}
	return cs
}

// ParallelSafe implements the ParallelSafe extension: the sort key depends
// only on precomputed graph attributes.
func (p SingleAttributePolicy) ParallelSafe() bool { return true }

// Name implements Policy.
func (p SingleAttributePolicy) Name() string {
	dir := "asc"
	if p.Descending {
		dir = "desc"
	}
	return fmt.Sprintf("sort-%s-%s", FeatureNames[p.Feature], dir)
}
