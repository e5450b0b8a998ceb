// Streaming (fused) LUT mapping: the depth-optimal selection pass runs
// inside the cut-enumeration wavefront, with each level's cut storage
// retired as soon as its consumers are merged (see mapper/stream.go for the
// ASIC analogue). Stream is the only way into the LUT mapper.
package lutmap

import (
	"slap/internal/aig"
	"slap/internal/cuts"
)

// leafChunk is the allocation granularity of the Stream's durable leaf
// storage.
const leafChunk = 4096

// Stream is an incremental LUT mapping in progress: feed each AND node's
// finalised cut list via ConsumeNode in topological order, then Finish.
type Stream struct {
	lm         *lutMapping
	noAreaRec  bool
	policyName string
	e          *cuts.Enumerator // for MakeCut fallbacks

	leafArena []uint32
	cutsSeen  int
	peakCuts  int
}

// NewStream prepares a streaming LUT mapping of g.
func NewStream(g *aig.AIG, opt Options) *Stream {
	policyName := "exhaustive"
	if opt.Policy != nil {
		policyName = opt.Policy.Name()
	}
	lm := newLutMapping(g)
	lm.sets = make([][]cuts.Cut, g.NumNodes())
	lm.configureRounds(&opt)
	return &Stream{
		lm:         lm,
		noAreaRec:  opt.NoAreaRecovery,
		policyName: policyName,
		e:          &cuts.Enumerator{G: g},
	}
}

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

// ConsumeNode ingests the finalised (borrowed) cut list of AND node n.
// Every non-self cut is LUT-implementable and is copied into stream-owned
// storage; self-referential trivial cuts contribute nothing to any pass
// and are dropped (they still count toward CutsConsidered). A node left
// with no usable cut gets the elementary fanin cut, mirroring the ASIC
// mapper's fallback. The depth-optimal selection runs on the spot — every
// leaf sits at a strictly lower, already-final level.
func (st *Stream) ConsumeNode(n uint32, cs []cuts.Cut) {
	lm := st.lm
	st.cutsSeen += len(cs)

	kept := 0
	for i := range cs {
		if !containsLeaf(&cs[i], n) {
			kept++
		}
	}
	var list []cuts.Cut
	if kept > 0 {
		list = make([]cuts.Cut, 0, kept)
		for i := range cs {
			c := &cs[i]
			if containsLeaf(c, n) {
				continue
			}
			cc := *c
			cc.Leaves = st.internLeaves(c.Leaves)
			list = append(list, cc)
		}
	} else {
		// Fallback: the elementary fanin cut.
		g := lm.g
		f0, f1 := g.Fanins(n)
		a, b := f0.Node(), f1.Node()
		if a > b {
			a, b = b, a
		}
		list = []cuts.Cut{st.e.MakeCut(n, []uint32{a, b})}
		st.cutsSeen++
	}
	lm.sets[n] = list
	lm.selectNode(n, nil)
}

// ConsumeExtras ingests recovery-only cuts for node n (the multi-round
// engine's wider pool): non-self cuts are copied into stream-owned storage
// and join the node's list after the depth round completes, so the depth
// round stays byte-identical to a single-pass run. No-op unless Rounds > 1.
func (st *Stream) ConsumeExtras(n uint32, cs []cuts.Cut) {
	lm := st.lm
	if lm.rounds <= 1 {
		return
	}
	var list []cuts.Cut
	for i := range cs {
		c := &cs[i]
		if containsLeaf(c, n) {
			continue
		}
		cc := *c
		cc.Leaves = st.internLeaves(c.Leaves)
		list = append(list, cc)
	}
	if list == nil {
		return
	}
	if lm.extras == nil {
		lm.extras = make([][]cuts.Cut, lm.g.NumNodes())
	}
	lm.extras[n] = list
}

// SetPeakCuts records the enumerator's peak live-cut count for the Result.
func (st *Stream) SetPeakCuts(peak int) { st.peakCuts = peak }

// Finish runs area recovery and builds the LUT network.
func (st *Stream) Finish() (*Result, error) {
	return st.lm.finish(st.policyName, st.cutsSeen, st.peakCuts, st.noAreaRec)
}

// MapStream covers g with K-feasible LUTs minimising depth, then recovers
// area under depth constraints, with enumeration and selection fused per
// wavefront level. Results are identical for every worker count (stateful
// policies degrade to the sequential index-order enumeration driver). When
// opt.Pool is set, cut storage is recycled across runs of the same graph
// shape.
func MapStream(g *aig.AIG, opt Options) (*Result, error) {
	st := NewStream(g, opt)
	var arena *cuts.Arena
	if opt.Pool != nil {
		arena = opt.Pool.Get(g)
		defer opt.Pool.Put(arena)
	}
	e := &cuts.Enumerator{G: g, Policy: opt.Policy, MergeCap: opt.MergeCap, Workers: opt.Workers, Arena: arena, Choices: opt.Choices}
	res, err := e.RunStream(func(_ int32, nodes []uint32, sets [][]cuts.Cut) error {
		for _, n := range nodes {
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
