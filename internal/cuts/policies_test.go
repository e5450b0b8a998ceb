package cuts

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/tt"
)

// mergedList is one AND node's cut list as the enumerator handed it to the
// policy: merged, deduplicated and choice-enriched, before any sorting.
type mergedList struct {
	root uint32
	cs   []Cut
}

// capturePolicy records a copy of every list it is given, then lets the
// wrapped policy process the original. It is not ParallelSafe, so the
// enumerator visits nodes sequentially and the capture order is stable.
type capturePolicy struct {
	inner Policy
	lists *[]mergedList
}

func (p capturePolicy) Process(g *aig.AIG, n uint32, cs []Cut) []Cut {
	*p.lists = append(*p.lists, mergedList{root: n, cs: append([]Cut(nil), cs...)})
	return p.inner.Process(g, n, cs)
}

func (p capturePolicy) Name() string { return "capture" }

// referenceSortFilter is the default policy's step before truncation, as a
// naive pipeline: a stable sort by leaf count, then larger volume, then
// lexicographic leaves, followed by the snapshot dominance filter.
func referenceSortFilter(root uint32, cs []Cut) []Cut {
	src := append([]Cut(nil), cs...)
	sort.SliceStable(src, func(i, j int) bool {
		a, b := &src[i], &src[j]
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) < len(b.Leaves)
		}
		if a.Volume != b.Volume {
			return a.Volume > b.Volume
		}
		for k := range a.Leaves {
			if a.Leaves[k] != b.Leaves[k] {
				return a.Leaves[k] < b.Leaves[k]
			}
		}
		return false
	})
	return referenceFilterDominated(root, src)
}

// randomDistinctCuts builds n cuts of root with pairwise distinct leaf sets
// over a small universe (so subsets abound), volumes drawn from a narrow
// range (so volume ties abound), random functions, some Choice cuts, and
// the root's trivial cut at a random position.
func randomDistinctCuts(rng *rand.Rand, root uint32, n, universe int) []Cut {
	seen := map[string]bool{}
	cs := []Cut{{Leaves: []uint32{root}, Sig: leafSig([]uint32{root}), TT: tt.Var(0)}}
	seen[fmt.Sprint([]uint32{root})] = true
	for len(cs) < n {
		k := 1 + rng.Intn(K)
		set := map[uint32]bool{}
		for len(set) < k {
			set[uint32(1+rng.Intn(universe))] = true
		}
		leaves := make([]uint32, 0, k)
		for l := range set {
			leaves = append(leaves, l)
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
		key := fmt.Sprint(leaves)
		if seen[key] {
			continue
		}
		seen[key] = true
		cs = append(cs, Cut{
			Leaves: leaves,
			Sig:    leafSig(leaves),
			TT:     tt.TT(rng.Uint32()),
			Volume: int32(rng.Intn(4)),
			Choice: rng.Intn(5) == 0,
		})
	}
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// TestDefaultPolicyMatchesReference pins the default policy's per-node step
// to the naive sort, filter and truncate pipeline: the same cuts, in the
// same order, with the same functions, volumes and choice flags, for every
// merged list of four enumerated graphs and for random lists of up to 2,000
// cuts, at limits below, at and above the list lengths.
func TestDefaultPolicyMatchesReference(t *testing.T) {
	var lists []mergedList
	for _, g := range []*aig.AIG{
		circuits.BoothMultiplier(8),
		circuits.ArrayMultiplier(8),
		circuits.RandomAIG(1, 24, 700),
		circuits.RandomAIG(2, 24, 700),
	} {
		e := &Enumerator{G: g, Policy: capturePolicy{inner: DefaultPolicy{}, lists: &lists}}
		e.Run()
	}
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 2, 3, 17, 64, 251, 600, 2000} {
		for _, universe := range []int{14, 20} {
			root := uint32(1 + rng.Intn(universe))
			lists = append(lists, mergedList{root: root, cs: randomDistinctCuts(rng, root, n, universe)})
		}
	}
	for li, l := range lists {
		full := referenceSortFilter(l.root, l.cs)
		for _, limit := range []int{0, 1, 8, 250, 5000} {
			want, lim := full, limit
			if lim == 0 {
				lim = DefaultCutLimit
			}
			if len(want) > lim {
				want = want[:lim]
			}
			got := DefaultPolicy{Limit: limit}.Process(nil, l.root, append([]Cut(nil), l.cs...))
			if len(got) != len(want) {
				t.Fatalf("list %d (root %d, %d cuts) limit %d: kept %d cuts, want %d",
					li, l.root, len(l.cs), limit, len(got), len(want))
			}
			for i := range want {
				w, c := &want[i], &got[i]
				if !leavesEqual(w.Leaves, c.Leaves) || w.TT != c.TT || w.Volume != c.Volume || w.Choice != c.Choice {
					t.Fatalf("list %d (root %d) limit %d cut %d: %v choice=%v, want %v choice=%v",
						li, l.root, limit, i, c, c.Choice, w, w.Choice)
				}
			}
		}
	}
}
