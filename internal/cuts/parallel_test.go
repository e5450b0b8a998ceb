package cuts

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
)

// requireIdenticalResults asserts that two enumeration results are
// byte-identical: same cut lists per node, same leaves, signatures, truth
// tables, volumes and ordering.
func requireIdenticalResults(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.TotalCuts != got.TotalCuts {
		t.Fatalf("%s: TotalCuts %d != %d", name, got.TotalCuts, want.TotalCuts)
	}
	if len(want.Sets) != len(got.Sets) {
		t.Fatalf("%s: Sets length %d != %d", name, len(got.Sets), len(want.Sets))
	}
	for n := range want.Sets {
		w, g := want.Sets[n], got.Sets[n]
		if len(w) != len(g) {
			t.Fatalf("%s: node %d has %d cuts, want %d", name, n, len(g), len(w))
		}
		for i := range w {
			wc, gc := &w[i], &g[i]
			if !leavesEqual(wc.Leaves, gc.Leaves) {
				t.Fatalf("%s: node %d cut %d leaves %v, want %v", name, n, i, gc.Leaves, wc.Leaves)
			}
			if wc.Sig != gc.Sig || wc.TT != gc.TT || wc.Volume != gc.Volume {
				t.Fatalf("%s: node %d cut %d (sig=%x tt=%x vol=%d), want (sig=%x tt=%x vol=%d)",
					name, n, i, gc.Sig, uint32(gc.TT), gc.Volume, wc.Sig, uint32(wc.TT), wc.Volume)
			}
		}
	}
}

// TestZeroWorkersFollowGOMAXPROCS checks that Workers: 0 resolves to
// GOMAXPROCS workers, the one meaning of "0 workers" in the program, not
// to one per CPU: under GOMAXPROCS(1) a run that could fan out takes the
// sequential path.
func TestZeroWorkersFollowGOMAXPROCS(t *testing.T) {
	e := &Enumerator{G: circuits.BoothMultiplier(8), Policy: DefaultPolicy{}}
	if e.G.NumAnds() < minParallelAnds {
		t.Fatalf("only %d AND nodes, below the parallel gate", e.G.NumAnds())
	}
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		w := e.effectiveWorkers()
		runtime.GOMAXPROCS(prev)
		if w != procs {
			t.Fatalf("Workers: 0 under GOMAXPROCS(%d) resolved to %d workers", procs, w)
		}
	}
}

// TestParallelMatchesSequential is the wavefront determinism property test:
// for every test graph and parallel-safe policy, enumeration with a worker
// pool must produce byte-identical cut sets to the sequential Workers=1 run.
func TestParallelMatchesSequential(t *testing.T) {
	graphs := []*aig.AIG{
		circuits.TrainRC16(),
		circuits.CarryLookaheadAdder(16),
		circuits.BoothMultiplier(8),
	}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, circuits.RandomAIG(seed, 24, 700))
	}
	policies := []Policy{
		nil,
		DefaultPolicy{},
		DefaultPolicy{Limit: 8},
		UnlimitedPolicy{},
		SingleAttributePolicy{Feature: 2, Descending: true},
	}
	for _, g := range graphs {
		if g.NumAnds() < minParallelAnds {
			t.Fatalf("%s: only %d AND nodes, below the parallel gate — not exercising the wavefront", g.Name, g.NumAnds())
		}
		for _, p := range policies {
			pname := "nil"
			if p != nil {
				pname = p.Name()
			}
			name := fmt.Sprintf("%s/%s", g.Name, pname)
			seq := (&Enumerator{G: g, Policy: p, Workers: 1}).Run()
			for _, workers := range []int{2, 4, 7} {
				par := (&Enumerator{G: g, Policy: p, Workers: workers}).Run()
				requireIdenticalResults(t, fmt.Sprintf("%s/workers=%d", name, workers), seq, par)
			}
		}
	}
}

// TestShufflePolicyDegradesToSequential proves the parallel-safety gate: a
// stateful policy requested with many workers must still reproduce the
// sequential per-seed result exactly.
func TestShufflePolicyDegradesToSequential(t *testing.T) {
	g := circuits.BoothMultiplier(8)
	mk := func(workers int) *Result {
		p := &ShufflePolicy{Rng: rand.New(rand.NewSource(7)), Limit: 16}
		return (&Enumerator{G: g, Policy: p, Workers: workers}).Run()
	}
	requireIdenticalResults(t, "shuffle", mk(1), mk(8))
}

// TestSortByLeavesTieBreak is the regression test for the lexicographic
// tie-break: equal leaf count and equal volume must order by leaves, making
// the sort independent of the input permutation.
func TestSortByLeavesTieBreak(t *testing.T) {
	mk := func(vol int32, leaves ...uint32) Cut {
		return Cut{Leaves: leaves, Sig: leafSig(leaves), Volume: vol}
	}
	cs := []Cut{
		mk(1, 2, 9),
		mk(1, 2, 3),
		mk(2, 5, 6),
		mk(1, 4),
		mk(3, 7),
	}
	SortByLeaves(cs)
	want := [][]uint32{
		{7},    // 1 leaf
		{4},    // 1 leaf (volume 1 < 3)
		{5, 6}, // 2 leaves, volume 2
		{2, 3}, // 2 leaves, volume 1, lexicographically before {2,9}
		{2, 9}, // 2 leaves, volume 1
	}
	for i := range want {
		if !leavesEqual(cs[i].Leaves, want[i]) {
			t.Fatalf("position %d: got %v, want %v (full order %v)", i, cs[i].Leaves, want[i], cs)
		}
	}
	// Permutation independence: any input order yields the same result.
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		perm := append([]Cut(nil), cs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		SortByLeaves(perm)
		for i := range cs {
			if !leavesEqual(perm[i].Leaves, cs[i].Leaves) {
				t.Fatalf("round %d: order depends on input permutation at %d: %v vs %v",
					round, i, perm[i].Leaves, cs[i].Leaves)
			}
		}
	}
}

// TestFilterDominatedForSkipsTrivial checks the root-aware fast path: the
// trivial cut is never treated as a dominator, while genuine one-leaf cuts
// of other nodes still dominate.
func TestFilterDominatedForSkipsTrivial(t *testing.T) {
	mk := func(leaves ...uint32) Cut {
		return Cut{Leaves: leaves, Sig: leafSig(leaves)}
	}
	const root = 7
	cs := []Cut{mk(root), mk(1, 2), mk(1, 2, 3), mk(3), mk(3, 4)}
	out := FilterDominatedFor(root, cs)
	want := [][]uint32{{root}, {1, 2}, {3}}
	if len(out) != len(want) {
		t.Fatalf("kept %d cuts %v, want %d", len(out), out, len(want))
	}
	for i := range want {
		if !leavesEqual(out[i].Leaves, want[i]) {
			t.Fatalf("kept cut %d = %v, want %v", i, out[i].Leaves, want[i])
		}
	}
}

// TestRandomAIGDeterministic pins the seeded generator: same seed, same
// graph shape; different seed, different shape.
func TestRandomAIGDeterministic(t *testing.T) {
	a := circuits.RandomAIG(5, 16, 400)
	b := circuits.RandomAIG(5, 16, 400)
	if a.NumNodes() != b.NumNodes() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("same seed produced different graphs: %d/%d nodes, %d/%d POs",
			a.NumNodes(), b.NumNodes(), a.NumPOs(), b.NumPOs())
	}
	if a.NumAnds() < minParallelAnds {
		t.Fatalf("random graph too small for wavefront tests: %d ANDs", a.NumAnds())
	}
}
