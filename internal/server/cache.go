package server

import (
	"context"

	"slap/internal/aig"
	"slap/internal/core"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/mapcache"
	"slap/internal/mapper"
)

// mapASIC serves one asic mapping through the result cache's front under
// sig and key, which handleMap computed when it looked the request up
// (both zero without a cache). It builds the request's flow from m and the
// call's cut policy p: the cold map, the ECO delta and the verify check. Serve does the rest: a
// result added since that lookup is still a hit, concurrent identical
// submissions collapse into one run, and a miss with cfg.ECO first tries
// to delta-remap against the nearest cached relative. Without a cache the
// flow is only the map and the verify check. Every policy, SLAP's keep
// decision included, runs the same flow.
func (s *Server) mapASIC(ctx context.Context, g *aig.AIG, m *core.Mapping, p cuts.Policy, verify bool, sig string, key mapcache.Key) (mapcache.Served, error) {
	f := mapcache.Flow{Sig: sig}
	if verify {
		f.Verify = func(r *mapper.Result) bool { return core.Verify(g, r.Netlist.EquivalentTo) == nil }
	}
	f.Map = func(capture bool) (*mapper.Result, mapcache.Snapshot, error) {
		// MapASIC takes the choice view inside the flight, so a hit never
		// builds or checks one out.
		if !capture {
			res, err := m.MapASIC(ctx, g, p, nil)
			return res, nil, err
		}
		snap := cover.NewSnapshot(g, p)
		res, err := m.MapASIC(ctx, g, p, snap)
		return res, snap, err
	}
	// Multi-round and choice maps still get exact-key caching and
	// singleflight; their entries just carry no snapshot.
	if s.cache != nil && s.cfg.ECO && m.DeltaEligible(p) {
		// A level filter's delta result carries a fresh snapshot, so edit
		// chains keep skipping inference. A cone-local policy's carries
		// none; later edits align against the original baseline entry.
		_, chain := p.(cuts.LevelFilter)
		f.Delta = func(sn mapcache.Snapshot) (*mapper.Result, mapcache.Snapshot, float64, bool) {
			var capture *cover.Snapshot
			var next mapcache.Snapshot // stays a nil interface without a capture
			if chain {
				capture = cover.NewSnapshot(g, p)
				next = capture
			}
			res, st, err := m.MapDelta(g, p, sn.(*cover.Snapshot), capture)
			if err != nil {
				return nil, nil, 0, false
			}
			return res, next, st.DirtyFraction, true
		}
	}
	return s.cache.Serve(ctx, g, key, f)
}
