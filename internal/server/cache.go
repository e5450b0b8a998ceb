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

// mapASIC serves one asic mapping through the result cache's front. It
// builds the request's flow: the options signature, the cold map, the ECO
// delta and the verify check. Serve does the rest: an exact hit skips
// mapping, concurrent identical submissions collapse into one run, and a
// miss with cfg.ECO first tries to delta-remap against the nearest cached
// relative. Without a cache the flow is only the map and the verify check.
func (s *Server) mapASIC(ctx context.Context, req *MapRequest, g *aig.AIG, lib *library.Library, model *nn.Model, workers int, policy string, cutPolicy cuts.Policy) (mapcache.Served, error) {
	var f mapcache.Flow
	if req.Verify {
		f.Verify = func(r *mapper.Result) bool {
			return r.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))) == nil
		}
	}
	// ECO snapshots and delta remapping are defined for the single-round,
	// no-choice flow only; multi-round configurations still get exact-key
	// caching and singleflight, their entries just carry no snapshot.
	eco := s.cache != nil && s.cfg.ECO && req.Rounds <= 1 && !req.Choices
	if policy == "slap" {
		sl := s.slapFor(req, model, lib, workers)
		f.Map = func(capture bool) (*mapper.Result, mapcache.Snapshot, error) {
			if !capture {
				res, err := sl.MapStreamContext(ctx, g)
				return res, nil, err
			}
			return sl.MapStreamCaptureContext(ctx, g)
		}
		if s.cache != nil {
			f.Sig = sl.ConfigSig()
		}
		if eco {
			// Entries under a slap signature carry slap snapshots. Each
			// delta result carries a fresh one, so edit chains keep
			// remapping incrementally.
			f.Delta = func(sn mapcache.Snapshot) (*mapper.Result, mapcache.Snapshot, float64, bool) {
				res, next, st, err := sl.MapDeltaContext(ctx, g, sn.(*core.SlapSnapshot))
				if err != nil {
					return nil, nil, 0, false
				}
				return res, next, st.DirtyFraction, true
			}
		}
		return s.cache.Serve(ctx, g, f)
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
		snap := mapper.NewSnapshot(g, o)
		o.CaptureCuts = snap.Capture
		res, err := mapper.MapStream(mg, o)
		return res, snap, err
	}
	if s.cache != nil {
		f.Sig = s.mapperSig(req, lib, policy)
	}
	if eco && mapper.ECOPolicySig(cutPolicy) != "" {
		// Entries under an asic signature carry mapper snapshots. Delta
		// results are cached without a snapshot of their own; later edits
		// keep aligning against the original baseline entry.
		f.Delta = func(sn mapcache.Snapshot) (*mapper.Result, mapcache.Snapshot, float64, bool) {
			res, st, err := mapper.MapDelta(g, opt, sn.(*mapper.Snapshot))
			if err != nil {
				return nil, nil, 0, false
			}
			return res, nil, st.DirtyFraction, true
		}
	}
	return s.cache.Serve(ctx, g, f)
}

// mapperSig is the result-cache signature of a non-slap asic mapping. It
// pins every option that shapes the result; scheduling knobs (workers,
// arena pool) stay out because they cannot change the output bytes.
func (s *Server) mapperSig(req *MapRequest, lib *library.Library, policy string) string {
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
	return fmt.Sprintf("asic/policy=%s/limit=%d/seed=%d/lib=%s@%p/rounds=%d/df=%g/choices=%s",
		policy, limit, seed, lib.Name, lib, rounds, df, cSig)
}
