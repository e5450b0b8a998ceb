// Streaming (fused) mapping: Boolean matching runs inside the cut
// enumeration wavefront instead of after it. A Stream consumes each node's
// finalised cut list the moment its level completes, keeps durable copies
// of only the cuts that can ever matter to the mapper (matchable ones, plus
// the elementary fanin fallback), and runs the delay-optimal selection pass
// incrementally. The enumerator is then free to retire the level's cut
// storage, so peak cut memory is the widest live window rather than the
// whole graph. Stream is the only way into the mapper: every flow feeds it
// node lists in topological order and calls Finish.
package mapper

import (
	"fmt"
	"math"

	"slap/internal/aig"
	"slap/internal/cuts"
)

// leafChunk is the allocation granularity of the Stream's durable leaf
// storage (uint32 leaves, so 16 KiB per chunk).
const leafChunk = 4096

// Stream is an incremental mapping in progress. Feed it each node's cut
// list via ConsumeNode (in topological order — the streaming enumerator's
// level order guarantees this), then call Finish.
type Stream struct {
	m          *mapping
	noAreaRec  bool
	policyName string

	leafArena []uint32

	// seen counts every cut handed to ConsumeNode plus one per fallback;
	// CutsConsidered adds the fallbacks once more (each is both an added
	// cut and a member of its node's final list).
	seen      int
	fallbacks int
	peakCuts  int
}

// NewStream prepares a streaming mapping of g.
func NewStream(g *aig.AIG, opt Options) (*Stream, error) {
	if opt.Library == nil {
		return nil, fmt.Errorf("mapper: Options.Library is required")
	}
	policyName := "exhaustive"
	if opt.Policy != nil {
		policyName = opt.Policy.Name()
	}
	m := newMapping(g, opt.Library, opt.MaxFanout)
	m.sets = make([][]cuts.Cut, g.NumNodes())
	m.configureRounds(&opt)
	return &Stream{m: m, noAreaRec: opt.NoAreaRecovery, policyName: policyName}, nil
}

// internLeaves copies ls into the stream's chunked leaf storage.
func (st *Stream) internLeaves(ls []uint32) []uint32 {
	if len(st.leafArena)+len(ls) > cap(st.leafArena) {
		sz := leafChunk
		if len(ls) > sz {
			sz = len(ls)
		}
		st.leafArena = make([]uint32, 0, sz)
	}
	i := len(st.leafArena)
	st.leafArena = append(st.leafArena, ls...)
	return st.leafArena[i : i+len(ls) : i+len(ls)]
}

// ConsumeNode ingests the finalised cut list of AND node n. The cuts are
// only borrowed (the enumerator may recycle them once this returns):
// matchable ones are copied into stream-owned storage. Retaining only
// matchable cuts is exact — unmatchable and self-referential cuts
// contribute zero match candidates to every selection pass and can never
// be chosen. A node left without a matchable cut (a policy filtered
// everything else away) gets the elementary fanin cut, as ABC always keeps
// it, so the node stays coverable. The delay-optimal selection pass runs
// on the spot: every leaf of every cut sits at a strictly lower level, so
// its arrival and flow are already final.
func (st *Stream) ConsumeNode(n uint32, cs []cuts.Cut) {
	m := st.m
	st.seen += len(cs)

	kept := 0
	for i := range cs {
		c := &cs[i]
		if containsLeaf(c, n) {
			continue
		}
		if len(m.lib.Matches(c.TT)) > 0 {
			kept++
		}
	}
	var list []cuts.Cut
	if kept > 0 {
		list = make([]cuts.Cut, 0, kept)
		for i := range cs {
			c := &cs[i]
			if containsLeaf(c, n) || len(m.lib.Matches(c.TT)) == 0 {
				continue
			}
			cc := *c
			cc.Leaves = st.internLeaves(c.Leaves)
			list = append(list, cc)
		}
	} else {
		// Fallback: keep the elementary fanin cut so the node stays
		// coverable (counted as both an added cut and a list member).
		list = []cuts.Cut{m.faninCut(n)}
		st.fallbacks++
		st.seen++
	}
	m.sets[n] = list

	// The delay pass (selectDelay) for this node, candidate order preserved.
	bestC := chosen{}
	for ci := range list {
		c := &list[ci]
		for _, match := range m.lib.Matches(c.TT) {
			m.matchAttempts++
			arr, flw := m.evalMatch(n, c, &match)
			cand := chosen{cutIdx: ci, match: match, valid: true, arrival: arr, flow: flw}
			if !bestC.valid || better(selectDelay, &cand, &bestC, m.required[n]) {
				bestC = cand
			}
		}
	}
	if !bestC.valid {
		bestC = chosen{arrival: math.Inf(1), flow: math.Inf(1)}
	}
	m.best[n] = bestC
	m.arrival[n] = bestC.arrival
	m.flow[n] = bestC.flow
}

// ConsumeExtras ingests recovery-only cuts for node n: the multi-round
// engine's wider pool, which joins the node's list after round 1 so later
// rounds select from more candidates. The cuts are borrowed like
// ConsumeNode's: matchable ones are copied into stream-owned storage and
// join the node's list only after round 1 completes, so the delay round
// stays byte-identical to a single-pass run. No-op unless Rounds > 1.
func (st *Stream) ConsumeExtras(n uint32, cs []cuts.Cut) {
	m := st.m
	if m.rounds <= 1 {
		return
	}
	var list []cuts.Cut
	for i := range cs {
		c := &cs[i]
		if containsLeaf(c, n) || len(m.lib.Matches(c.TT)) == 0 {
			continue
		}
		cc := *c
		cc.Leaves = st.internLeaves(c.Leaves)
		list = append(list, cc)
	}
	if list == nil {
		return
	}
	if m.extras == nil {
		m.extras = make([][]cuts.Cut, m.g.NumNodes())
	}
	m.extras[n] = list
}

// SetPeakCuts records the enumerator's peak live-cut count for the Result.
func (st *Stream) SetPeakCuts(peak int) { st.peakCuts = peak }

// Finish runs area recovery and netlist construction over the retained
// cuts and returns the final Result.
func (st *Stream) Finish() (*Result, error) {
	return st.m.finish(st.noAreaRec, st.policyName, st.fallbacks+st.seen, st.peakCuts)
}

// MapStream runs the fused streaming mapping flow on g: cut enumeration
// and Boolean matching pipelined per wavefront level, with per-level cut
// storage retired as soon as its consumers are merged. Results are
// identical for every worker count and with or without a pool (stateful
// policies degrade to the sequential index-order driver, see
// cuts.Enumerator.RunStream). When opt.Pool is set, cut storage is checked
// out of the arena pool and recycled across runs of the same graph.
func MapStream(g *aig.AIG, opt Options) (*Result, error) {
	return mapStream(g, opt, nil)
}

// mapStream is MapStream with an optional enumeration reuse hook (see
// cuts.Enumerator.Reuse), through which MapDelta installs its clean lists.
func mapStream(g *aig.AIG, opt Options, reuse func(uint32) []cuts.Cut) (*Result, error) {
	st, err := NewStream(g, opt)
	if err != nil {
		return nil, err
	}
	var arena *cuts.Arena
	if opt.Pool != nil {
		arena = opt.Pool.Get(g)
		defer opt.Pool.Put(arena)
	}
	e := &cuts.Enumerator{G: g, Policy: opt.Policy, MergeCap: opt.MergeCap, Workers: opt.Workers, Arena: arena, Choices: opt.Choices, Reuse: reuse}
	res, err := e.RunStream(func(_ int32, nodes []uint32, sets [][]cuts.Cut) error {
		for _, n := range nodes {
			if opt.CaptureCuts != nil {
				opt.CaptureCuts(n, sets[n])
			}
			st.ConsumeNode(n, sets[n])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.SetPeakCuts(res.PeakCuts)
	return st.Finish()
}
