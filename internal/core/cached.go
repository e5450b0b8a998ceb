package core

import (
	"context"

	"slap/internal/aig"
	"slap/internal/mapcache"
	"slap/internal/mapper"
)

// CachedOptions configures MapCached.
type CachedOptions struct {
	// ECO enables delta-remapping against the nearest cached relative when
	// the exact key misses.
	ECO bool
	// Verify, when set, is run once on every freshly mapped result (never
	// on cache hits) and its verdict is stored on the cache entry.
	Verify func(*mapper.Result) bool
}

// CacheOutcome reports how a MapCached call was served.
type CacheOutcome struct {
	// Key is the content address the request resolved to.
	Key mapcache.Key
	// Hit reports an exact-key cache hit — no mapping work at all.
	Hit bool
	// Shared reports a singleflight follower that reused a concurrent
	// identical submission's fresh result.
	Shared bool
	// ECO reports that the miss was served by delta-remapping against a
	// cached relative instead of a cold full map.
	ECO bool
	// DirtyFraction is the fraction of AND nodes re-classified on the ECO
	// path (meaningful only when ECO is true).
	DirtyFraction float64
	// Verified mirrors the cache entry's equivalence-check bit.
	Verified bool
}

// MapCached is the serving entry point of the SLAP flow: a content-
// addressed lookup (graph structure + names + configuration signature)
// answers exact repeats in O(1), a singleflight collapses concurrent
// identical submissions into one mapping, and — with ECO enabled — a miss
// first tries to delta-remap against the nearest cached relative before
// paying for a cold map. Every fresh result is cached together with its
// ECO snapshot, so edit chains keep remapping incrementally. A nil cache
// degrades to a plain map.
func (s *SLAP) MapCached(ctx context.Context, g *aig.AIG, cache *mapcache.Cache, opt CachedOptions) (*mapper.Result, *CacheOutcome, error) {
	out := &CacheOutcome{}
	if cache == nil {
		res, err := s.MapStreamContext(ctx, g)
		if err != nil {
			return nil, nil, err
		}
		if opt.Verify != nil {
			out.Verified = opt.Verify(res)
		}
		return res, out, nil
	}

	// ECO snapshots and delta remapping are defined for the single-round,
	// no-choice flow only: a snapshot records the keep decision's filtered
	// lists, not the recovery pools or a choice view's combined graph. The
	// multi-round configurations still get exact-key caching and
	// singleflight — their entries just carry no snapshot.
	simple := s.Rounds <= 1 && !s.Choices

	sig := s.ConfigSig()
	out.Key = mapcache.KeyOf(g, sig)
	e, shared, err := cache.Do(out.Key, func() (*mapcache.Entry, error) {
		// Leader path: the lookup happens inside the flight so a result
		// added between a miss and the flight acquisition is still found.
		if e, ok := cache.Get(out.Key); ok {
			out.Hit = true
			return e, nil
		}
		if opt.ECO && simple {
			if e, ok := s.tryDelta(ctx, g, cache, sig, opt.Verify, out); ok {
				return e, nil
			}
		}
		var res *mapper.Result
		var snap *SlapSnapshot
		var err error
		if simple {
			res, snap, err = s.MapStreamCaptureContext(ctx, g)
		} else {
			res, err = s.MapStreamContext(ctx, g)
		}
		if err != nil {
			return nil, err
		}
		e := &mapcache.Entry{Key: out.Key, Sig: sig, Result: res}
		if snap != nil {
			e.Snap = snap
		}
		if opt.Verify != nil {
			e.Verified = opt.Verify(res)
		}
		cache.Add(e)
		return e, nil
	})
	if err != nil {
		return nil, nil, err
	}
	out.Shared = shared
	out.Verified = e.Verified
	return e.Result, out, nil
}

// tryDelta attempts the ECO path: find the nearest cached relative by
// cone-hash overlap and delta-remap against its snapshot. Any
// ineligibility (no relative, foreign snapshot type, depth change,
// configuration drift) falls back to a cold map; only success caches and
// reports.
func (s *SLAP) tryDelta(ctx context.Context, g *aig.AIG, cache *mapcache.Cache, sig string, verify func(*mapper.Result) bool, out *CacheOutcome) (*mapcache.Entry, bool) {
	near := cache.Nearest(sig, g.ConeHashes())
	if near == nil {
		return nil, false
	}
	snap, ok := near.Snap.(*SlapSnapshot)
	if !ok {
		return nil, false
	}
	res, next, st, err := s.MapDeltaContext(ctx, g, snap)
	if err != nil {
		return nil, false
	}
	cache.RecordECOHit()
	out.ECO = true
	out.DirtyFraction = st.DirtyFraction
	e := &mapcache.Entry{Key: out.Key, Sig: sig, Result: res, Snap: next}
	if verify != nil {
		e.Verified = verify(res)
	}
	cache.Add(e)
	return e, true
}
