package server

import (
	"context"
	"fmt"
	"math/rand"

	"slap/internal/aig"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapcache"
	"slap/internal/mapper"
)

// mapASIC serves one asic mapping through the result cache's front under
// key, which handleMap computed when it looked the request up. It builds
// the request's flow: the options signature, the cold map, the ECO delta
// and the verify check. Serve does the rest: a result added since that
// lookup is still a hit, concurrent identical submissions collapse into
// one run, and a miss with cfg.ECO first tries to delta-remap against the
// nearest cached relative. Without a cache the flow is only the map and
// the verify check. Every policy, SLAP's keep decision included, runs the
// same flow.
func (s *Server) mapASIC(ctx context.Context, req *MapRequest, g *aig.AIG, lib *library.Library, workers int, cutPolicy cuts.Policy, key mapcache.Key) (mapcache.Served, error) {
	var f mapcache.Flow
	if req.Verify {
		f.Verify = func(r *mapper.Result) bool {
			return r.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))) == nil
		}
	}
	opt := mapper.Options{
		Library: lib, Policy: cutPolicy, Workers: workers,
		Rounds: req.Rounds, DelayFactor: req.DelayFactor,
	}
	f.Map = func(capture bool) (*mapper.Result, mapcache.Snapshot, error) {
		// The choice view is taken here, inside the flight, so a hit
		// never builds or checks one out.
		mg, ch, err := s.requestChoiceView(ctx, g, req.Choices)
		if err != nil {
			return nil, nil, err
		}
		o := opt
		o.Choices, o.Pool = ch, s.pool
		if !capture {
			res, err := mapper.MapStream(mg, o)
			return res, nil, err
		}
		snap := cover.NewSnapshot(g, o.Policy)
		o.CaptureCuts = snap.Capture
		res, err := mapper.MapStream(mg, o)
		return res, snap, err
	}
	if s.cache != nil {
		f.Sig = s.mapperSig(req, lib, cutPolicy)
	}
	// ECO snapshots and delta remapping are defined for the single-round,
	// no-choice flow only; multi-round configurations still get exact-key
	// caching and singleflight, their entries just carry no snapshot.
	if s.cache != nil && s.cfg.ECO && req.Rounds <= 1 && !req.Choices && cover.ECOPolicySig(cutPolicy) != "" {
		// A level filter's delta result carries a fresh snapshot, so edit
		// chains keep skipping inference. A cone-local policy's carries
		// none; later edits align against the original baseline entry.
		_, chain := cutPolicy.(cuts.LevelFilter)
		f.Delta = func(sn mapcache.Snapshot) (*mapper.Result, mapcache.Snapshot, float64, bool) {
			o := opt
			var next mapcache.Snapshot
			if chain {
				snap := cover.NewSnapshot(g, o.Policy)
				o.CaptureCuts, next = snap.Capture, snap
			}
			res, st, err := mapper.MapDelta(g, o, sn.(*cover.Snapshot))
			if err != nil {
				return nil, nil, 0, false
			}
			return res, next, st.DirtyFraction, true
		}
	}
	return s.cache.Serve(ctx, g, key, f)
}

// mapperSig is the result-cache signature of an asic mapping. It pins
// every option that shapes the result; scheduling knobs (workers, arena
// pool) stay out because they cannot change the output bytes, so a
// request is signed before it is granted any. A level filter signs itself
// (core.SLAP.ConfigSig).
func (s *Server) mapperSig(req *MapRequest, lib *library.Library, cutPolicy cuts.Policy) string {
	if lf, ok := cutPolicy.(cuts.LevelFilter); ok {
		return lf.Sig()
	}
	limit := req.Limit
	seed := int64(0)
	switch req.Policy {
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
	return fmt.Sprintf("asic/policy=%s/limit=%d/seed=%d/lib=%s@%p/rounds=%d/df=%g/choices=%s",
		req.Policy, limit, seed, lib.Name, lib, rounds, df, cSig)
}
