package cuts

import (
	"sync/atomic"
	"testing"

	"slap/internal/circuits"
)

// TestPoolLRUEvictionOrder pins the pool's eviction discipline: the
// least-recently-returned arena is dropped first, a re-touched arena is
// promoted ahead of older ones, and every drop is counted.
func TestPoolLRUEvictionOrder(t *testing.T) {
	g1 := circuits.RandomAIG(11, 16, 200)
	g2 := circuits.RandomAIG(22, 16, 200)
	g3 := circuits.RandomAIG(33, 16, 200)

	pool := NewPool(2)
	a1 := pool.Get(g1)
	pool.Put(a1)
	a2 := pool.Get(g2)
	pool.Put(a2)

	// Touch g1 so g2 becomes the least recently used arena.
	if got := pool.Get(g1); got != a1 {
		t.Fatal("expected cached arena for g1")
	}
	pool.Put(a1)

	if st := pool.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions=%d before overflow, want 0", st.Evictions)
	}

	a3 := pool.Get(g3)
	pool.Put(a3) // capacity 2: must evict a2, the LRU, not the re-touched a1

	st := pool.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions=%d after overflow, want 1", st.Evictions)
	}
	if st.Cached != 2 {
		t.Fatalf("cached=%d after overflow, want 2", st.Cached)
	}
	if got := pool.Get(g1); got != a1 {
		t.Fatal("recently-touched arena was evicted instead of the LRU one")
	}
	pool.Put(a1)
	if got := pool.Get(g2); got == a2 {
		t.Fatal("LRU arena survived eviction")
	}

	// A second overflow evicts again and keeps counting.
	pool.Put(pool.Get(g2))
	if st := pool.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions=%d after second overflow, want 2", st.Evictions)
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
