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
						e.Arena = pool.Get(g)
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
				e.Arena = pool.Get(g)
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
	e := &Enumerator{G: g, Policy: UnlimitedPolicy{}, Workers: 1, Arena: NewArena(g)}
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
// pooling: once an arena has served a graph shape, further streaming runs
// of the same graph perform zero cut allocations, with the exhaustive
// policy and with the default policy's sort and dominance pass.
func TestArenaPoolZeroSteadyStateAllocs(t *testing.T) {
	g := circuits.BoothMultiplier(8)
	sink := LevelSink(func(level int32, nodes []uint32, sets [][]Cut) error { return nil })
	for _, pol := range []Policy{UnlimitedPolicy{}, DefaultPolicy{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			pool := NewPool(2)
			e := &Enumerator{G: g, Policy: pol, Workers: 1}
			run := func() {
				a := pool.Get(g)
				e.Arena = a
				if _, err := e.RunStream(sink); err != nil {
					panic(err)
				}
				pool.Put(a)
			}
			run() // builds the arena
			run() // lets the free lists reach their steady footprint
			if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
				t.Fatalf("steady-state streaming run allocated %.1f objects, want 0", allocs)
			}
			st := pool.Stats()
			if st.Misses != 1 || st.Hits < 7 {
				t.Fatalf("pool stats hits=%d misses=%d, want 1 miss and the rest hits", st.Hits, st.Misses)
			}
		})
	}
}

// TestPoolKeyingAndEviction checks structural keying (distinct graphs get
// distinct arenas) and the capacity-bounded eviction.
func TestPoolKeyingAndEviction(t *testing.T) {
	g1 := circuits.RandomAIG(1, 16, 300)
	g2 := circuits.RandomAIG(2, 16, 300)
	if KeyOf(g1) == KeyOf(g2) {
		t.Fatal("structurally different graphs share a GraphKey")
	}
	// The same structure rebuilt from scratch must hit the cached arena.
	g1b := circuits.RandomAIG(1, 16, 300)
	if KeyOf(g1) != KeyOf(g1b) {
		t.Fatal("identical structures disagree on GraphKey")
	}
	pool := NewPool(1)
	a1 := pool.Get(g1)
	pool.Put(a1)
	if got := pool.Get(g1b); got != a1 {
		t.Fatal("rebuilt graph of the same shape did not reuse the cached arena")
	}
	pool.Put(a1)
	a2 := pool.Get(g2)
	pool.Put(a2) // capacity 1: a1 must be evicted
	if st := pool.Stats(); st.Cached != 1 {
		t.Fatalf("cached=%d after eviction, want 1", st.Cached)
	}
	if got := pool.Get(g1); got == a1 {
		t.Fatal("evicted arena came back")
	}
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
			got := filterDominated(root, append([]Cut(nil), cs...))
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
	got := filterDominated(^uint32(0), cs)
	sorted := sort.SliceIsSorted(got, func(i, j int) bool {
		a, b := &got[i], &got[j]
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) < len(b.Leaves)
		}
		return false
	})
	if !sorted {
		t.Fatal("filterDominated broke the canonical leaf-count ordering")
	}
}
