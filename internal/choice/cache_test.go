package choice

import (
	"context"
	"sync"
	"testing"

	"slap/internal/circuits"
)

// TestCacheWarmRepeatSkipsBuild pins the cache contract: a repeat checkout
// with the same (base, options) returns the same view pointer without
// rebuilding, and a different Workers setting still hits — Workers is a
// scheduling knob excluded from the content signature.
func TestCacheWarmRepeatSkipsBuild(t *testing.T) {
	c := NewCache(0)
	g := circuits.CarryLookaheadAdder(8)
	ctx := context.Background()

	v1, err := c.Checkout(ctx, g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Checkout(ctx, g, Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("warm repeat rebuilt the view instead of sharing the cached one")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Views != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 view", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("cached view accounted %d bytes", st.Bytes)
	}

	// A different content knob must key separately.
	v3, err := c.Checkout(ctx, g, Options{ProofConflicts: 99})
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("different options shared a cached view")
	}
	if st := c.Stats(); st.Misses != 2 || st.Views != 2 {
		t.Fatalf("stats = %+v, want 2 misses, 2 views", st)
	}
}

// TestCacheConcurrentCheckout races many goroutines checking out the same
// key plus a rotating set of distinct keys; run under -race this is the
// stress test for concurrent cached-view checkout. The shared key must
// build exactly once (singleflight) and every caller must observe the same
// immutable view.
func TestCacheConcurrentCheckout(t *testing.T) {
	c := NewCache(0)
	shared := circuits.CarryLookaheadAdder(6)
	ctx := context.Background()

	const goroutines = 16
	views := make([]*View, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Checkout(ctx, shared, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			// Exercise concurrent reads of the shared view.
			for n := uint32(1); n < uint32(v.G.NumNodes()); n++ {
				_ = v.MembersOf(n)
			}
			views[i] = v

			// Interleave distinct keys to race Add/evict against lookups.
			own := circuits.RandomAIG(int64(i+1), 5, 60)
			if _, err := c.Checkout(ctx, own, Options{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if views[i] != views[0] {
			t.Fatalf("goroutine %d got a different view for the shared key", i)
		}
	}
	st := c.Stats()
	if st.Misses != goroutines+1 { // 16 distinct graphs + 1 shared build
		t.Fatalf("misses = %d, want %d", st.Misses, goroutines+1)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

// TestCacheEviction forces the byte budget and checks LRU order: the least
// recently used view goes first and the counters record it.
func TestCacheEviction(t *testing.T) {
	g1 := circuits.RandomAIG(1, 5, 80)
	g2 := circuits.RandomAIG(2, 5, 80)
	ctx := context.Background()

	probe := NewCache(0)
	v1, err := probe.Checkout(ctx, g1, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Budget fits one view but not two.
	c := NewCache(v1.SizeBytes() + v1.SizeBytes()/2)
	if _, err := c.Checkout(ctx, g1, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkout(ctx, g2, Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Views != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 1 resident view", st)
	}
	// g1 was evicted: checking it out again must rebuild (miss).
	if _, err := c.Checkout(ctx, g1, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (g1 rebuilt after eviction)", st.Misses)
	}
}

// TestCacheCancelledBuild checks that a cancelled context surfaces the
// context error and caches nothing, and that the lookup that found nothing
// counts one miss, as a result-cache lookup does.
func TestCacheCancelledBuild(t *testing.T) {
	c := NewCache(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Checkout(ctx, circuits.CarryLookaheadAdder(8), Options{}); err == nil {
		t.Fatal("cancelled checkout returned no error")
	}
	if st := c.Stats(); st.Views != 0 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v after a cancelled build, want 0 views, 1 miss, 0 hits", st)
	}
}

// TestOptionsSigPinned pins the options signature byte for byte: it keys
// the view cache and is part of core.Mapping.Sig, whose length the
// result cache charges per entry. Workers never appears in it.
func TestOptionsSigPinned(t *testing.T) {
	if got, want := (Options{}).Sig(), "variants=2/seed=1/mm=8/sw=16/pc=4000"; got != want {
		t.Fatalf("Sig = %q, want %q", got, want)
	}
	if got, want := (Options{Workers: 3, ProofConflicts: 99}).Sig(), "variants=2/seed=1/mm=8/sw=16/pc=99"; got != want {
		t.Fatalf("Sig = %q, want %q", got, want)
	}
}
