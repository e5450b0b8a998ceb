package cuts

import (
	"math/rand"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/tt"
)

// evalCone evaluates the function of root in terms of the cut leaves by
// traversing the cone symbolically with truth tables. It returns ok=false
// when some path from a PI to the root does not pass through a leaf (i.e.
// the leaf set is not actually a cut).
func evalCone(g *aig.AIG, root uint32, leaves []uint32) (tt.TT, bool) {
	idx := make(map[uint32]int, len(leaves))
	for i, l := range leaves {
		idx[l] = i
	}
	memo := make(map[uint32]tt.TT)
	ok := true
	var eval func(n uint32) tt.TT
	eval = func(n uint32) tt.TT {
		if i, isLeaf := idx[n]; isLeaf {
			return tt.Var(i)
		}
		if v, seen := memo[n]; seen {
			return v
		}
		if !g.IsAnd(n) {
			ok = false // hit a PI or constant that is not a leaf
			return tt.Const0
		}
		f0, f1 := g.Fanins(n)
		v0 := eval(f0.Node())
		if f0.IsCompl() {
			v0 = v0.Not()
		}
		v1 := eval(f1.Node())
		if f1.IsCompl() {
			v1 = v1.Not()
		}
		v := v0.And(v1)
		memo[n] = v
		return v
	}
	v := eval(root)
	return v, ok
}

func enumerate(g *aig.AIG, p Policy) *Result {
	e := &Enumerator{G: g, Policy: p}
	return e.Run()
}

func TestEnumerationInvariants(t *testing.T) {
	for _, g := range []*aig.AIG{
		circuits.TrainRC16(),
		circuits.CarryLookaheadAdder(8),
		circuits.ArrayMultiplier(4),
	} {
		res := enumerate(g, nil)
		checked := 0
		for n := uint32(1); n < uint32(g.NumNodes()); n++ {
			if !g.IsAnd(n) {
				continue
			}
			if len(res.Sets[n]) == 0 {
				t.Fatalf("%s: node %d has no cuts", g.Name, n)
			}
			for i := range res.Sets[n] {
				c := &res.Sets[n][i]
				if len(c.Leaves) == 0 || len(c.Leaves) > K {
					t.Fatalf("%s: node %d cut %v is not %d-feasible", g.Name, n, c.Leaves, K)
				}
				for j := 1; j < len(c.Leaves); j++ {
					if c.Leaves[j-1] >= c.Leaves[j] {
						t.Fatalf("%s: node %d cut %v leaves not strictly sorted", g.Name, n, c.Leaves)
					}
				}
				if c.Sig != leafSig(c.Leaves) {
					t.Fatalf("%s: node %d cut %v signature wrong", g.Name, n, c.Leaves)
				}
				want, isCut := evalCone(g, n, c.Leaves)
				if !isCut {
					t.Fatalf("%s: node %d leaf set %v is not a cut", g.Name, n, c.Leaves)
				}
				if want != c.TT {
					t.Fatalf("%s: node %d cut %v truth table %08x, want %08x",
						g.Name, n, c.Leaves, uint32(c.TT), uint32(want))
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no cuts verified", g.Name)
		}
	}
}

func TestTrivialCutAlwaysPresent(t *testing.T) {
	g := circuits.TrainRC16()
	res := enumerate(g, DefaultPolicy{Limit: 2})
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		found := false
		for i := range res.Sets[n] {
			if res.Sets[n][i].IsTrivial(n) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d lost its trivial cut", n)
		}
	}
}

func TestVolumeMatchesConeCount(t *testing.T) {
	g := circuits.CarryLookaheadAdder(8)
	res := enumerate(g, nil)
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		for i := range res.Sets[n] {
			c := &res.Sets[n][i]
			// Recount with an independent traversal.
			leafSet := make(map[uint32]bool)
			for _, l := range c.Leaves {
				leafSet[l] = true
			}
			seen := make(map[uint32]bool)
			var count func(m uint32) int32
			count = func(m uint32) int32 {
				if seen[m] || leafSet[m] || !g.IsAnd(m) {
					return 0
				}
				seen[m] = true
				f0, f1 := g.Fanins(m)
				return 1 + count(f0.Node()) + count(f1.Node())
			}
			if got := count(n); got != c.Volume {
				t.Fatalf("node %d cut %v volume %d, want %d", n, c.Leaves, c.Volume, got)
			}
		}
	}
}

func TestFilterDominated(t *testing.T) {
	mk := func(leaves ...uint32) Cut {
		return Cut{Leaves: leaves, Sig: leafSig(leaves)}
	}
	cs := []Cut{mk(1, 2, 3), mk(1, 2), mk(4, 5), mk(1, 2, 3, 4), mk(6)}
	out := FilterDominated(cs)
	wantKept := [][]uint32{{1, 2}, {4, 5}, {6}}
	if len(out) != len(wantKept) {
		t.Fatalf("FilterDominated kept %d cuts, want %d: %v", len(out), len(wantKept), out)
	}
	for i, w := range wantKept {
		if len(out[i].Leaves) != len(w) {
			t.Fatalf("kept cut %d = %v, want %v", i, out[i].Leaves, w)
		}
		for j := range w {
			if out[i].Leaves[j] != w[j] {
				t.Fatalf("kept cut %d = %v, want %v", i, out[i].Leaves, w)
			}
		}
	}
	// Duplicate leaf sets: exactly one survives.
	dup := []Cut{mk(1, 2), mk(1, 2)}
	if got := FilterDominated(dup); len(got) != 1 {
		t.Fatalf("duplicate sets: kept %d, want 1", len(got))
	}
}

func TestSubsetOf(t *testing.T) {
	a := Cut{Leaves: []uint32{1, 3}, Sig: leafSig([]uint32{1, 3})}
	b := Cut{Leaves: []uint32{1, 2, 3}, Sig: leafSig([]uint32{1, 2, 3})}
	if !subsetOf(&a, &b) {
		t.Errorf("{1,3} is a subset of {1,2,3}")
	}
	if subsetOf(&b, &a) {
		t.Errorf("{1,2,3} is not a subset of {1,3}")
	}
	if !subsetOf(&a, &a) {
		t.Errorf("a set is a subset of itself")
	}
}

func TestExpandTT(t *testing.T) {
	// f(x0,x1) = x0 AND x1 over leaves [10, 20], expanded to [5, 10, 20]:
	// must become x1 AND x2.
	f := tt.Var(0).And(tt.Var(1))
	got := expandTT(f, []uint32{10, 20}, []uint32{5, 10, 20})
	want := tt.Var(1).And(tt.Var(2))
	if got != want {
		t.Fatalf("expandTT = %08x, want %08x", uint32(got), uint32(want))
	}
	// Identity expansion.
	if expandTT(f, []uint32{1, 2}, []uint32{1, 2}) != f {
		t.Errorf("identity expansion changed the function")
	}
}

func TestDefaultPolicyOrdering(t *testing.T) {
	g := circuits.CarryLookaheadAdder(8)
	res := enumerate(g, DefaultPolicy{})
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		cs := res.Sets[n]
		if len(cs) == 0 {
			continue
		}
		// Non-decreasing leaf count except for the appended trivial cut.
		for i := 1; i < len(cs); i++ {
			if cs[i].IsTrivial(n) {
				continue
			}
			if len(cs[i-1].Leaves) > len(cs[i].Leaves) {
				t.Fatalf("node %d cuts not sorted by leaves: %v then %v", n, cs[i-1].Leaves, cs[i].Leaves)
			}
		}
		// No dominated pairs.
		for i := range cs {
			for j := range cs {
				if i != j && !cs[i].IsTrivial(n) && !cs[j].IsTrivial(n) &&
					len(cs[i].Leaves) < len(cs[j].Leaves) && subsetOf(&cs[i], &cs[j]) {
					t.Fatalf("node %d kept dominated cut %v under %v", n, cs[j].Leaves, cs[i].Leaves)
				}
			}
		}
	}
}

func TestDefaultPolicyLimit(t *testing.T) {
	g := circuits.ArrayMultiplier(6)
	res := enumerate(g, DefaultPolicy{Limit: 5})
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if len(res.Sets[n]) > 6 { // limit + possibly re-appended trivial cut
			t.Fatalf("node %d has %d cuts, limit 5", n, len(res.Sets[n]))
		}
	}
}

func TestUnlimitedSeesMoreCuts(t *testing.T) {
	g := circuits.CarryLookaheadAdder(16)
	def := enumerate(g, DefaultPolicy{})
	unl := enumerate(g, UnlimitedPolicy{})
	if unl.TotalCuts <= def.TotalCuts {
		t.Fatalf("unlimited (%d cuts) should expose more cuts than default (%d)",
			unl.TotalCuts, def.TotalCuts)
	}
}

func TestShuffleDeterministicPerSeed(t *testing.T) {
	g := circuits.TrainRC16()
	run := func(seed int64) []int {
		res := enumerate(g, &ShufflePolicy{Rng: rand.New(rand.NewSource(seed))})
		var shape []int
		for n := uint32(1); n < uint32(g.NumNodes()); n++ {
			for i := range res.Sets[n] {
				shape = append(shape, len(res.Sets[n][i].Leaves))
			}
		}
		return shape
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed produced different cut counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different cut lists at %d", i)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Logf("warning: different seeds produced identical shapes (possible but unlikely)")
	}
}

func TestSingleAttributePolicySorts(t *testing.T) {
	g := circuits.CarryLookaheadAdder(8)
	for _, desc := range []bool{false, true} {
		res := enumerate(g, SingleAttributePolicy{Feature: 2, Descending: desc}) // volume
		for n := uint32(1); n < uint32(g.NumNodes()); n++ {
			cs := res.Sets[n]
			var prev float64
			first := true
			for i := range cs {
				if cs[i].IsTrivial(n) {
					continue
				}
				v := cs[i].Features(g, n)[2]
				if !first {
					if desc && v > prev || !desc && v < prev {
						t.Fatalf("node %d not sorted (desc=%v): %f after %f", n, desc, v, prev)
					}
				}
				prev, first = v, false
			}
		}
	}
}

func TestCutFeatures(t *testing.T) {
	g := aig.New("f")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	f := g.And(ab, c)
	g.AddPO("f", f.Not()) // root has an inverted fanout

	cut := Cut{Leaves: []uint32{a.Node(), b.Node(), c.Node()}}
	cut.Sig = leafSig(cut.Leaves)
	cut.Volume = 2
	feat := cut.Features(g, f.Node())
	if feat[0] != 1 {
		t.Errorf("rootInverted = %f, want 1", feat[0])
	}
	if feat[1] != 3 {
		t.Errorf("numLeaves = %f, want 3", feat[1])
	}
	if feat[2] != 2 {
		t.Errorf("volume = %f, want 2", feat[2])
	}
	if feat[3] != 0 || feat[4] != 0 || feat[5] != 0 {
		t.Errorf("leaf levels of PIs must be 0: %v", feat[3:6])
	}
	// a and b feed one AND each; fanouts: a=1, b=1, c=1.
	if feat[6] != 1 || feat[7] != 1 || feat[8] != 3 {
		t.Errorf("fanout features wrong: %v", feat[6:9])
	}
}

func TestTotalCutsCountsAndNodesOnly(t *testing.T) {
	g := circuits.TrainRC16()
	res := enumerate(g, DefaultPolicy{})
	sum := 0
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			sum += len(res.Sets[n])
		}
	}
	if res.TotalCuts != sum {
		t.Fatalf("TotalCuts = %d, want %d", res.TotalCuts, sum)
	}
}

func BenchmarkEnumerateDefault(b *testing.B) {
	g := circuits.BoothMultiplier(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enumerate(g, DefaultPolicy{})
	}
}

func BenchmarkEnumerateUnlimited(b *testing.B) {
	g := circuits.BoothMultiplier(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enumerate(g, UnlimitedPolicy{})
	}
}

// benchMergeInputs builds realistic fanin cut lists for the merge benchmark:
// the two fanins of the highest-level AND node of a multiplier, enumerated
// under the default policy.
func benchMergeInputs(b *testing.B) (*Enumerator, uint32, aig.Lit, aig.Lit, []Cut, []Cut) {
	b.Helper()
	g := circuits.BoothMultiplier(8)
	e := &Enumerator{G: g, Policy: DefaultPolicy{}}
	res := e.Run()
	var best uint32
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) && g.Level(n) > g.Level(best) {
			best = n
		}
	}
	f0, f1 := g.Fanins(best)
	return e, best, f0, f1, res.Sets[f0.Node()], res.Sets[f1.Node()]
}

// BenchmarkMergeNode isolates the per-node merge step (leaf union, dedupe,
// cone evaluation) — the enumeration hot path. It merges on an arena
// scratch, as a run does, and hands the cut block and leaf chunks back
// after each merge.
func BenchmarkMergeNode(b *testing.B) {
	e, n, _, _, cs0, cs1 := benchMergeInputs(b)
	a := new(Arena)
	a.attach(e.G)
	s := a.scratchFor(0, e.G.MaxLevel())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.mergeNode(n, cs0, cs1)
		if len(out) == 0 {
			b.Fatal("merge produced no cuts")
		}
		a.putCutBlock(out)
		s.reclaimChunks()
	}
}

// BenchmarkCutEnumeration measures whole-graph enumeration under the default
// policy (the mapper's first stage).
func BenchmarkCutEnumeration(b *testing.B) {
	g := circuits.BoothMultiplier(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Enumerator{G: g, Policy: DefaultPolicy{}}
		if res := e.Run(); res.TotalCuts == 0 {
			b.Fatal("no cuts")
		}
	}
}
