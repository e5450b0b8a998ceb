package cuts

import (
	"sync/atomic"
	"testing"

	"slap/internal/circuits"
)

// TestPoolDropsPastCapacity pins the pool's bound: a Put into a full pool
// drops the arena and counts one eviction, Cached never exceeds the cap,
// and Get lends the most recently returned arena first.
func TestPoolDropsPastCapacity(t *testing.T) {
	pool := NewPool(2)
	a1, a2, a3 := pool.Get(), pool.Get(), pool.Get()
	for i, a := range []*Arena{a1, a2, a3} {
		pool.Put(a)
		st := pool.Stats()
		if st.Cached > 2 {
			t.Fatalf("cached=%d after %d puts, want at most 2", st.Cached, i+1)
		}
		if want := int64(max(0, i-1)); st.Evictions != want {
			t.Fatalf("evictions=%d after %d puts, want %d", st.Evictions, i+1, want)
		}
	}
	if got := pool.Get(); got != a2 {
		t.Fatal("Get did not lend the most recently parked arena")
	}
	if got := pool.Get(); got != a1 {
		t.Fatal("Get did not lend the remaining parked arena")
	}
	if got := pool.Get(); got == a1 || got == a2 || got == a3 {
		t.Fatal("an empty pool lent an arena it no longer holds")
	}
	if st := pool.Stats(); st.Hits != 2 || st.Misses != 4 || st.Cached != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 hits, 4 misses, 0 cached, 1 eviction", st)
	}
}

// TestEnumeratorReuse checks both reuse modes: an always-miss hook
// reproduces Run exactly, and installing a prior run's lists verbatim
// yields the same Result without reprocessing those nodes — on the
// sequential driver and on the parallel wavefront, which calls the hook
// from several goroutines.
func TestEnumeratorReuse(t *testing.T) {
	g := circuits.RandomAIG(7, 12, 400)
	for _, pol := range []Policy{nil, UnlimitedPolicy{}, DefaultPolicy{}} {
		base := (&Enumerator{G: g, Policy: pol, Workers: 1}).Run()
		for _, workers := range []int{1, 4} {
			miss := (&Enumerator{G: g, Policy: pol, Workers: workers,
				Reuse: func(n uint32) []Cut { return nil }}).Run()
			compareResults(t, g, base, miss)

			var reused atomic.Int64
			hit := (&Enumerator{G: g, Policy: pol, Workers: workers, Reuse: func(n uint32) []Cut {
				if n%2 == 0 {
					reused.Add(1)
					return base.Sets[n]
				}
				return nil
			}}).Run()
			if reused.Load() == 0 {
				t.Fatal("reuse hook never fired")
			}
			compareResults(t, g, base, hit)
		}
	}
}

func compareResults(t *testing.T, g interface{ NumNodes() int }, a, b *Result) {
	t.Helper()
	if a.TotalCuts != b.TotalCuts {
		t.Fatalf("TotalCuts %d != %d", a.TotalCuts, b.TotalCuts)
	}
	for n := 0; n < g.NumNodes(); n++ {
		ca, cb := a.Sets[n], b.Sets[n]
		if len(ca) != len(cb) {
			t.Fatalf("node %d: %d cuts != %d cuts", n, len(ca), len(cb))
		}
		for i := range ca {
			if !leavesEqual(ca[i].Leaves, cb[i].Leaves) || ca[i].TT != cb[i].TT ||
				ca[i].Volume != cb[i].Volume || ca[i].Sig != cb[i].Sig {
				t.Fatalf("node %d cut %d differs: %v vs %v", n, i, ca[i], cb[i])
			}
		}
	}
}
