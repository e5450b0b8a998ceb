package cuts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
)

// update re-records the enumeration digests under testdata.
var update = flag.Bool("update", false, "re-record the enumeration digests under testdata")

// runDigestFile holds one digest of Run's lists per graph × policy of the
// two tests below. They were recorded from a Run that kept every list on
// the heap and so never recycled storage; streamed lists that a premature
// recycle overwrote cannot match them.
const runDigestFile = "testdata/run_digests.json"

// runDigest hashes an enumeration result: TotalCuts, then every node in
// order with its cut count and, per cut, the leaves, truth table,
// signature, volume and choice flag.
func runDigest(res *Result) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(res.TotalCuts))
	put(uint64(len(res.Sets)))
	for _, cs := range res.Sets {
		put(uint64(len(cs)))
		for i := range cs {
			c := &cs[i]
			put(uint64(len(c.Leaves)))
			for _, l := range c.Leaves {
				put(uint64(l))
			}
			put(uint64(c.TT))
			put(c.Sig)
			put(uint64(c.Volume))
			if c.Choice {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestBook compares digests with the recorded ones. With -update, the
// first digest checked under a name is recorded instead, and save writes
// the file back with the other tests' entries kept.
type digestBook struct {
	t    *testing.T
	want map[string]string
}

func openDigests(t *testing.T) *digestBook {
	t.Helper()
	b := &digestBook{t: t, want: map[string]string{}}
	raw, err := os.ReadFile(runDigestFile)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return b
		}
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b.want); err != nil {
		t.Fatal(err)
	}
	return b
}

// check requires got to equal the digest recorded under name; label names
// the run that produced it.
func (b *digestBook) check(name, label, got string) {
	b.t.Helper()
	want, ok := b.want[name]
	if !ok && *update {
		b.want[name], want, ok = got, got, true
	}
	switch {
	case !ok:
		b.t.Errorf("%s: no digest recorded for %s", label, name)
	case got != want:
		b.t.Errorf("%s: digest %s, recorded %s", label, got, want)
	}
}

func (b *digestBook) save() {
	b.t.Helper()
	if !*update {
		return
	}
	raw, err := json.MarshalIndent(b.want, "", "\t")
	if err != nil {
		b.t.Fatal(err)
	}
	if err := os.WriteFile(runDigestFile, append(raw, '\n'), 0o644); err != nil {
		b.t.Fatal(err)
	}
}

// snapshotStream runs streaming enumeration and deep-copies every level at
// sink time — the only moment the cut lists are guaranteed alive — plus
// the PIs' trivial cuts before the arena can go back to a pool. Any
// premature level retirement would corrupt later merges and change the
// snapshot's digest.
func snapshotStream(t *testing.T, e *Enumerator) *Result {
	t.Helper()
	g := e.G
	snap := &Result{Sets: make([][]Cut, g.NumNodes())}
	res, err := e.RunStream(func(level int32, nodes []uint32, sets [][]Cut) error {
		for _, n := range nodes {
			if g.Level(n) != level {
				t.Fatalf("node %d delivered at level %d, has level %d", n, level, g.Level(n))
			}
			snap.Sets[n] = deepCopy(sets[n])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	snap.TotalCuts = res.TotalCuts
	snap.PeakCuts = res.PeakCuts
	for _, pi := range g.PIs() {
		snap.Sets[pi] = deepCopy(res.Sets[pi])
	}
	return snap
}

func deepCopy(cs []Cut) []Cut {
	cp := make([]Cut, len(cs))
	for i := range cs {
		cp[i] = cs[i]
		cp[i].Leaves = append([]uint32(nil), cs[i].Leaves...)
	}
	return cp
}

// TestRunStreamMatchesRun is the streaming determinism property test: for
// every graph and parallel-safe policy, Run's lists and the per-level lists
// streamed at every worker count, on a fresh arena and on one recycled
// through a pool, must all hash to the recorded digest — so neither the
// worker fan-out nor arena recycling ever changes what a sink observes.
func TestRunStreamMatchesRun(t *testing.T) {
	graphs := []*aig.AIG{
		circuits.TrainRC16(),
		circuits.CarryLookaheadAdder(16),
		circuits.BoothMultiplier(8),
	}
	for seed := int64(1); seed <= 2; seed++ {
		graphs = append(graphs, circuits.RandomAIG(seed, 24, 700))
	}
	policies := []struct {
		name string
		p    Policy
	}{
		{"nil", nil},
		{"default", DefaultPolicy{}},
		{"default-limit8", DefaultPolicy{Limit: 8}},
		{"unlimited", UnlimitedPolicy{}},
		{"volume-desc", SingleAttributePolicy{Feature: 2, Descending: true}},
	}
	book := openDigests(t)
	defer book.save()
	for _, g := range graphs {
		for _, pc := range policies {
			name := g.Name + "/" + pc.name
			book.check(name, name+"/run", runDigest((&Enumerator{G: g, Policy: pc.p, Workers: 1}).Run()))
			pool := NewPool(1)
			for _, workers := range []int{1, 2, 4, 7} {
				for _, pooled := range []bool{false, true} {
					e := &Enumerator{G: g, Policy: pc.p, Workers: workers}
					if pooled {
						e.Arena = pool.Get()
					}
					got := snapshotStream(t, e)
					if pooled {
						pool.Put(e.Arena)
					}
					label := fmt.Sprintf("%s/workers=%d/pooled=%v", name, workers, pooled)
					book.check(name, label, runDigest(got))
					if got.PeakCuts > got.TotalCuts {
						t.Fatalf("%s: PeakCuts %d > TotalCuts %d", label, got.PeakCuts, got.TotalCuts)
					}
				}
			}
		}
	}
}

// TestRunStreamShuffleMatchesSequential pins the stateful-policy contract:
// streaming under ShufflePolicy must take the index-order driver and
// reproduce the recorded sequential lists for the same seed, byte for byte.
func TestRunStreamShuffleMatchesSequential(t *testing.T) {
	g := circuits.BoothMultiplier(8)
	shuffle := func() Policy { return &ShufflePolicy{Rng: rand.New(rand.NewSource(7)), Limit: 16} }
	const name = "booth8/shuffle"
	book := openDigests(t)
	defer book.save()
	book.check(name, name+"/run", runDigest((&Enumerator{G: g, Policy: shuffle(), Workers: 1}).Run()))
	pool := NewPool(1)
	for _, workers := range []int{1, 8} {
		for _, pooled := range []bool{false, true} {
			e := &Enumerator{G: g, Policy: shuffle(), Workers: workers}
			if pooled {
				e.Arena = pool.Get()
			}
			got := snapshotStream(t, e)
			if pooled {
				pool.Put(e.Arena)
			}
			book.check(name, fmt.Sprintf("%s/workers=%d/pooled=%v", name, workers, pooled), runDigest(got))
		}
	}
}

// TestRunStreamRetiresLevels checks the level-retirement rule end state:
// every AND node's cut list is released by the time RunStream returns, and
// on a deep graph the live window stays well below the total.
func TestRunStreamRetiresLevels(t *testing.T) {
	g := circuits.BoothMultiplier(8)
	e := &Enumerator{G: g, Policy: UnlimitedPolicy{}, Workers: 1, Arena: new(Arena)}
	res, err := e.RunStream(nil)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) && res.Sets[n] != nil {
			t.Fatalf("AND node %d still holds %d cuts after streaming", n, len(res.Sets[n]))
		}
		if g.IsPI(n) && len(res.Sets[n]) != 1 {
			t.Fatalf("PI %d lost its trivial cut", n)
		}
	}
	if res.PeakCuts <= 0 || res.TotalCuts <= 0 {
		t.Fatalf("counters not populated: peak=%d total=%d", res.PeakCuts, res.TotalCuts)
	}
	if res.PeakCuts >= res.TotalCuts {
		t.Fatalf("no retirement observed: peak=%d total=%d", res.PeakCuts, res.TotalCuts)
	}
}

// TestRunStreamSinkError verifies a sink error aborts the run.
func TestRunStreamSinkError(t *testing.T) {
	g := circuits.TrainRC16()
	wantErr := fmt.Errorf("sink says no")
	e := &Enumerator{G: g, Policy: UnlimitedPolicy{}, Workers: 1}
	if _, err := e.RunStream(func(int32, []uint32, [][]Cut) error { return wantErr }); err != wantErr {
		t.Fatalf("got err %v, want %v", err, wantErr)
	}
}

// TestArenaPoolZeroSteadyStateAllocs is the acceptance test for cross-run
// pooling: once an arena has served the graphs of a workload, further
// streaming runs perform zero cut allocations, with the exhaustive policy
// and with the default policy's sort and dominance pass, both for repeats
// of one graph and for one arena alternating between two graphs of
// different node, PI and level counts.
func TestArenaPoolZeroSteadyStateAllocs(t *testing.T) {
	booth := circuits.BoothMultiplier(8)
	other := circuits.RandomAIG(5, 24, 600)
	sink := LevelSink(func(level int32, nodes []uint32, sets [][]Cut) error { return nil })
	for _, pol := range []Policy{UnlimitedPolicy{}, DefaultPolicy{}} {
		for _, graphs := range [][]*aig.AIG{{booth}, {booth, other}} {
			name := pol.Name()
			if len(graphs) > 1 {
				name = "alternating-" + name
			}
			t.Run(name, func(t *testing.T) {
				pool := NewPool(1)
				es := make([]*Enumerator, len(graphs))
				for i, g := range graphs {
					es[i] = &Enumerator{G: g, Policy: pol, Workers: 1}
				}
				run := func() {
					for _, e := range es {
						e.Arena = pool.Get()
						if _, err := e.RunStream(sink); err != nil {
							panic(err)
						}
						pool.Put(e.Arena)
					}
				}
				run() // builds the arena
				run() // lets the free lists reach their steady footprint
				if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
					t.Fatalf("steady-state streaming pass allocated %.1f objects, want 0", allocs)
				}
				if st := pool.Stats(); st.Misses != 1 || st.Hits != int64(8*len(graphs)-1) {
					t.Fatalf("pool stats hits=%d misses=%d, want 1 miss and the rest hits", st.Hits, st.Misses)
				}
			})
		}
	}
}

// TestPoolLendsAcrossGraphs checks that an arena lent from one graph to
// the next changes nothing: one pool of capacity 1 serves a sequence of
// graphs whose node, PI and level counts grow and shrink, and every run
// must hash to what a fresh arena streams, on the wavefront at one and
// three workers and on the index-order driver. The pool builds one arena
// for the whole sequence.
func TestPoolLendsAcrossGraphs(t *testing.T) {
	graphs := []*aig.AIG{
		circuits.RandomAIG(3, 10, 200),
		circuits.BoothMultiplier(8),
		circuits.TrainRC16(),
		interleavedAIG(6, 20, 300),
		circuits.RandomAIG(4, 40, 900),
		circuits.CarryLookaheadAdder(8),
		circuits.BoothMultiplier(6),
	}
	cases := []struct {
		policy  func() Policy
		workers []int
	}{
		{func() Policy { return DefaultPolicy{} }, []int{1, 3}},
		{func() Policy { return UnlimitedPolicy{} }, []int{1, 3}},
		{func() Policy { return &ShufflePolicy{Rng: rand.New(rand.NewSource(7)), Limit: 16} }, []int{1}},
	}
	for _, c := range cases {
		for _, workers := range c.workers {
			pool := NewPool(1)
			for _, g := range graphs {
				label := fmt.Sprintf("%s/%s/workers=%d", g.Name, c.policy().Name(), workers)
				want := snapshotStream(t, &Enumerator{G: g, Policy: c.policy(), Workers: workers})
				e := &Enumerator{G: g, Policy: c.policy(), Workers: workers, Arena: pool.Get()}
				got := snapshotStream(t, e)
				pool.Put(e.Arena)
				if runDigest(got) != runDigest(want) || got.PeakCuts != want.PeakCuts {
					t.Fatalf("%s: lent arena streamed lists that differ from a fresh arena's", label)
				}
			}
			if st := pool.Stats(); st.Misses != 1 || st.Hits != int64(len(graphs)-1) {
				t.Fatalf("%s/workers=%d: pool stats hits=%d misses=%d, want %d and 1",
					c.policy().Name(), workers, st.Hits, st.Misses, len(graphs)-1)
			}
		}
	}
}

// interleavedAIG builds a random graph that adds a PI after every few AND
// nodes. The generated circuits number their PIs first, so its PI ids
// differ from theirs, and an arena lent between them must rebuild its PI
// trivial cuts rather than keep the last graph's.
func interleavedAIG(seed int64, pis, ands int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New(fmt.Sprintf("interleaved%d", seed))
	lits := []aig.Lit{g.AddPI("x0"), g.AddPI("x1")}
	for tries := 0; tries < 16*ands && g.NumAnds() < ands; tries++ {
		if tries%4 == 0 && g.NumPIs() < pis {
			lits = append(lits, g.AddPI(fmt.Sprintf("x%d", g.NumPIs())))
		}
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		if o := g.And(a, b); o.Node() != a.Node() && o.Node() != b.Node() {
			lits = append(lits, o)
		}
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) && g.Fanout(n) == 0 {
			g.AddPO(fmt.Sprintf("y%d", n), aig.MakeLit(n, false))
		}
	}
	return g
}

// referenceFilterDominated is a deliberately naive reimplementation of the
// dominance filter over an immutable snapshot, used as the oracle for the
// regression test below.
func referenceFilterDominated(root uint32, cs []Cut) []Cut {
	src := append([]Cut(nil), cs...)
	var out []Cut
	for i := range src {
		dominated := false
		for j := range src {
			if i == j {
				continue
			}
			cj := &src[j]
			if cj.IsTrivial(root) || len(cj.Leaves) > len(src[i].Leaves) {
				continue
			}
			if subsetOf(cj, &src[i]) {
				if len(cj.Leaves) == len(src[i].Leaves) && j > i {
					continue
				}
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, src[i])
		}
	}
	return out
}

// TestFilterDominatedMatchesReference is the satellite regression test: the
// production filter must decide dominance against the pristine input (no
// transient reordering mid-pass) and preserve order, matching a naive
// snapshot-based oracle on randomized lists with heavy subset/duplicate
// structure, including lists past the 256-cut stack-bitset fast path.
func TestFilterDominatedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mk := func(leaves ...uint32) Cut {
		sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
		return Cut{Leaves: leaves, Sig: leafSig(leaves)}
	}
	random := func(n, universe int) []Cut {
		cs := make([]Cut, n)
		for i := range cs {
			k := 1 + rng.Intn(K)
			set := map[uint32]bool{}
			for len(set) < k {
				set[uint32(1+rng.Intn(universe))] = true
			}
			var leaves []uint32
			for l := range set {
				leaves = append(leaves, l)
			}
			cs[i] = mk(leaves...)
		}
		return cs
	}
	cases := [][]Cut{
		{mk(1, 2), mk(1, 2, 3), mk(1, 2), mk(4), mk(4, 5), mk(1, 3)},
		{mk(7), mk(1, 2), mk(2, 3), mk(1, 2, 3), mk(1, 2, 3, 4), mk(3)},
	}
	for trial := 0; trial < 50; trial++ {
		cases = append(cases, random(3+rng.Intn(40), 8))
	}
	cases = append(cases, random(300, 10)) // exceeds the 256-bit stack bitset
	for ci, cs := range cases {
		for _, root := range []uint32{^uint32(0), 7} {
			want := referenceFilterDominated(root, cs)
			got := FilterDominatedFor(root, append([]Cut(nil), cs...))
			if len(want) != len(got) {
				t.Fatalf("case %d root %d: kept %d cuts, want %d", ci, root, len(got), len(want))
			}
			for i := range want {
				if !leavesEqual(want[i].Leaves, got[i].Leaves) {
					t.Fatalf("case %d root %d cut %d: %v, want %v", ci, root, i, got[i].Leaves, want[i].Leaves)
				}
			}
		}
	}
	// Canonical ordering is preserved: a SortByLeaves-sorted list stays
	// sorted through the filter.
	cs := random(60, 9)
	SortByLeaves(cs)
	got := FilterDominatedFor(^uint32(0), cs)
	sorted := sort.SliceIsSorted(got, func(i, j int) bool {
		a, b := &got[i], &got[j]
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) < len(b.Leaves)
		}
		return false
	})
	if !sorted {
		t.Fatal("FilterDominatedFor broke the canonical leaf-count ordering")
	}
}
