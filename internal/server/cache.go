package server

import (
	"context"
	"fmt"
	"math/rand"

	"slap/internal/aig"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapcache"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// asicServed is how the asic mapping path answered one request: the result
// plus how it was obtained, for the response envelope and metrics.
type asicServed struct {
	res *mapper.Result
	// verified mirrors the cache entry's equivalence bit; false means the
	// handler must run (or re-run) the check itself when the client asked.
	verified bool
	// cached reports an exact-key hit or a shared singleflight result.
	cached bool
	// eco reports that a miss was served by delta-remapping; dirty is the
	// fraction of AND nodes re-processed.
	eco   bool
	dirty float64
}

// cachedMapASIC serves an asic mapping through the result cache: an exact
// content-address hit skips mapping entirely, concurrent identical
// submissions collapse into one run, and — with cfg.ECO — a miss first
// tries to delta-remap against the nearest cached relative. Every fresh
// result is cached with its ECO snapshot so edit chains keep remapping
// incrementally.
func (s *Server) cachedMapASIC(ctx context.Context, req *MapRequest, g *aig.AIG, lib *library.Library, model *nn.Model, workers int, policy string, cutPolicy cuts.Policy) (*asicServed, error) {
	if policy == "slap" {
		sl := s.slapFor(req, model, lib, workers)
		var verify func(*mapper.Result) bool
		if req.Verify {
			verify = func(r *mapper.Result) bool {
				return r.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))) == nil
			}
		}
		res, out, err := sl.MapCached(ctx, g, s.cache, core.CachedOptions{ECO: s.cfg.ECO, Verify: verify})
		if err != nil {
			return nil, err
		}
		if out.ECO {
			s.metrics.dirtyFraction.Observe(out.DirtyFraction)
		}
		return &asicServed{
			res:      res,
			verified: out.Verified,
			cached:   out.Hit || out.Shared,
			eco:      out.ECO,
			dirty:    out.DirtyFraction,
		}, nil
	}

	// Non-slap policies cache at the mapper level. The signature pins every
	// option that shapes the result; scheduling knobs (workers, arena pool)
	// stay out because they cannot change the output bytes.
	limit := req.Limit
	seed := int64(0)
	switch policy {
	case "unlimited":
		limit = 0
	case "shuffle":
		seed = req.Seed
	}
	rounds := req.Rounds
	if rounds < 1 {
		rounds = 1
	}
	df := req.DelayFactor
	if df < 1 {
		df = 1
	}
	// The choice-options content signature joins the key when choices are
	// on: two server configs that build different views must never share a
	// cached mapping result.
	cSig := "off"
	if req.Choices {
		cSig = s.cfg.ChoiceOptions.Sig()
	}
	sig := fmt.Sprintf("asic/policy=%s/limit=%d/seed=%d/lib=%s@%p/rounds=%d/df=%g/choices=%s",
		policy, limit, seed, lib.Name, lib, rounds, df, cSig)
	key := mapcache.KeyOf(g, sig)
	// ECO snapshots and delta remapping are defined for the single-round,
	// no-choice flow only; multi-round configurations still get exact-key
	// caching and singleflight, their entries just carry no snapshot.
	simple := rounds <= 1 && !req.Choices
	mg, ch, err := s.requestChoiceView(ctx, g, req.Choices)
	if err != nil {
		return nil, err
	}
	opt := mapper.Options{
		Library: lib, Policy: cutPolicy, Workers: workers,
		Rounds: req.Rounds, DelayFactor: req.DelayFactor, Choices: ch,
	}
	verify := func(r *mapper.Result) bool {
		return r.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))) == nil
	}

	served := &asicServed{}
	e, shared, err := s.cache.Do(key, func() (*mapcache.Entry, error) {
		// Leader path: the lookup happens inside the flight so a result
		// added between a miss and the flight acquisition is still found.
		if e, ok := s.cache.Get(key); ok {
			served.cached = true
			return e, nil
		}
		if s.cfg.ECO && simple {
			if e, ok := s.tryMapperDelta(g, sig, key, opt, req.Verify, verify, served); ok {
				return e, nil
			}
		}
		var snap *mapper.Snapshot
		if simple {
			snap = mapper.NewSnapshot(g, opt) // nil for non-ECO-eligible policies (shuffle)
		}
		capOpt := opt
		capOpt.Pool = s.pool
		if snap != nil {
			capOpt.CaptureCuts = snap.Capture
		}
		res, err := mapper.MapStream(mg, capOpt)
		if err != nil {
			return nil, err
		}
		e := &mapcache.Entry{Key: key, Sig: sig, Result: res}
		if snap != nil {
			e.Snap = snap
		}
		if req.Verify {
			e.Verified = verify(res)
		}
		s.cache.Add(e)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	served.res = e.Result
	served.verified = e.Verified
	served.cached = served.cached || shared
	return served, nil
}

// tryMapperDelta attempts the mapper-level ECO path: find the nearest
// cached relative by cone-hash overlap and delta-remap against its
// snapshot. Any ineligibility falls back to a cold map. Delta results are
// cached without a snapshot of their own; later edits keep aligning
// against the original baseline entry, which Nearest still finds.
func (s *Server) tryMapperDelta(g *aig.AIG, sig string, key mapcache.Key, opt mapper.Options, wantVerify bool, verify func(*mapper.Result) bool, served *asicServed) (*mapcache.Entry, bool) {
	near := s.cache.Nearest(sig, g.ConeHashes())
	if near == nil {
		return nil, false
	}
	snap, ok := near.Snap.(*mapper.Snapshot)
	if !ok {
		return nil, false
	}
	res, st, err := mapper.MapDelta(g, opt, snap)
	if err != nil {
		return nil, false
	}
	s.cache.RecordECOHit()
	s.metrics.dirtyFraction.Observe(st.DirtyFraction)
	served.eco = true
	served.dirty = st.DirtyFraction
	e := &mapcache.Entry{Key: key, Sig: sig, Result: res}
	if wantVerify {
		e.Verified = verify(res)
	}
	s.cache.Add(e)
	return e, true
}
