package choice

import (
	"context"

	"slap/internal/aig"
	"slap/internal/mapcache"
)

// DefaultCacheBudget is the view-cache byte budget when none is configured.
// Views are small next to mapping results (a combined graph plus member
// lists), so the default is deliberately modest.
const DefaultCacheBudget = 64 << 20

// CacheStats is a point-in-time counter snapshot of a view cache.
type CacheStats struct {
	// Hits counts checkouts served from the cache, including singleflight
	// followers who shared a leader's freshly built view.
	Hits int64
	// Misses counts checkouts that had to build (singleflight leaders).
	Misses int64
	// Evictions counts views dropped to stay inside the byte budget.
	Evictions int64
	// Bytes is the current estimated resident size of all cached views.
	Bytes int64
	// Views is the current number of resident views — the worker's choice
	// warmth, exported so fleet coordinators can see which workers hold warm
	// views for affinity-routed repeats.
	Views int
}

// Cache is a content-addressed, byte-budgeted LRU of built choice views
// (a mapcache.Store) with singleflight deduplication: concurrent checkouts
// of the same (base graph, options) pair collapse into one Build whose
// view everyone shares. Keys cover the base graph's full structural
// encoding (via mapcache.KeyOf) plus the Options content signature, so any
// change to either simply misses; Workers is excluded from the signature
// because the built view is byte-identical across worker counts — one
// cached view serves requests with different parallelism settings. Views
// are immutable after Build, which is what makes concurrent checkout of a
// shared view safe. Safe for concurrent use.
type Cache struct {
	// OnBuild, when set, is invoked once per fresh (singleflight-leader)
	// build with the just-built view — cached and shared checkouts do not
	// re-fire it — so observers can aggregate per-phase build timings and
	// proof outcomes without double counting. Set before first use; called
	// without any cache lock held.
	OnBuild func(*View)

	store *mapcache.Store[*View]
}

// NewCache builds a view cache with the given byte budget (<= 0 means
// DefaultCacheBudget).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBudget
	}
	return &Cache{store: mapcache.NewStore(budget, (*View).SizeBytes)}
}

// CacheKey returns the content address a (base, options) pair is cached
// under. Exposed so servers can correlate requests with cache entries.
func CacheKey(base *aig.AIG, o Options) mapcache.Key {
	return mapcache.KeyOf(base, "choice/"+o.Sig())
}

// Checkout returns the view for (base, o), building it at most once: an
// exact-key hit is O(1), concurrent misses with the same key collapse into
// a single BuildContext via singleflight, and the built view is stored
// under the byte budget with LRU eviction. The returned view is shared and
// immutable — callers must not mutate it. A follower waits on its own ctx
// as well as on the build; when the leader's build ends with a context
// error, a follower whose ctx is still live builds the view itself, with
// its own ctx. So the only possible errors are the caller's own ctx.Err()
// and, for a follower, the error of a build that panicked. A follower
// counts as a hit only when it shares a built view.
func (c *Cache) Checkout(ctx context.Context, base *aig.AIG, o Options) (*View, error) {
	k := CacheKey(base, o)
	if v, ok := c.store.Hit(k); ok {
		return v, nil
	}
	v, _, err := c.store.Do(ctx, k, func() (*View, error) {
		v, err := BuildContext(ctx, base, o)
		if err == nil && c.OnBuild != nil {
			c.OnBuild(v)
		}
		return v, err
	})
	return v, err
}

// Stats returns current counters.
func (c *Cache) Stats() CacheStats {
	st := c.store.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Bytes: st.Bytes, Views: st.Entries}
}
