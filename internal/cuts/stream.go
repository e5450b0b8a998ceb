// Streaming enumeration: RunStream hands each completed wavefront level to
// a sink (the fused mapper) and releases a level's cut storage as soon as
// every consumer of that level has been merged — the level-retirement rule.
// Peak cut memory drops from the whole graph to the widest live window, and
// the released blocks are recycled in place through the run's Arena.
package cuts

import (
	"context"

	"slap/internal/par"
)

// LevelSink consumes the finalised cut sets of one wavefront level. It is
// called on the driver goroutine with levels in ascending order; nodes is
// the level's AND nodes in ascending index order and sets is the full
// Sets view (only entries of still-live levels are valid). The cut lists
// handed to the sink are only guaranteed to stay alive until the sink
// returns: consumers must copy whatever they keep. A non-nil error aborts
// the run.
type LevelSink func(level int32, nodes []uint32, sets [][]Cut) error

// streamState is the per-run bookkeeping of RunStream. It lives on the
// driver's stack; all backing slices come from the run's Arena.
type streamState struct {
	res      *Result
	a        *Arena
	sink     LevelSink
	maxLevel int32

	levelNodes []uint32 // AND nodes grouped by level, ascending within each
	levelOff   []int32  // level L = levelNodes[levelOff[L]:levelOff[L+1]]
	levelCuts  []int32  // cuts retained per completed level (live accounting)
	retireLv   []int32  // levels ordered by retirement time
	retireOff  []int32  // retireLv segment to retire once level M completes

	scratches []*scratch

	live  int
	peak  int
	total int
}

// RunStream enumerates cuts for all nodes, invoking sink after each level's
// cut sets are final and retiring each level's storage once all of its
// consumers (AND fanouts) have been merged. It is the one enumeration
// driver: parallel-safe policies stream the level wavefront, stateful ones
// (e.g. ShufflePolicy) degrade to the sequential index-order walk that
// preserves their visit-order-dependent state, with sinks still fired per
// completed level prefix. Cut sets are identical for every worker count.
//
// Cut storage comes from e.Arena, or from a fresh arena when it is nil.
// After RunStream returns, AND entries of Result.Sets have been released;
// only TotalCuts and PeakCuts remain meaningful.
func (e *Enumerator) RunStream(sink LevelSink) (*Result, error) {
	return e.runStream(e.Arena, sink)
}

// runStream is RunStream over an explicit arena; nil makes a fresh one for
// the run.
func (e *Enumerator) runStream(a *Arena, sink LevelSink) (*Result, error) {
	g := e.G

	// Force the AIG's lazily-memoised caches (levels, fanouts, inverted
	// fanout flags) before fanning out: policies read them through
	// Cut.Features and the first computation must not be raced.
	maxLevel := g.MaxLevel()
	g.Fanout(0)
	g.HasInvertedFanout(0)

	if a == nil {
		a = new(Arena)
	}
	a.attach(g)
	res := &a.res
	*res = Result{Sets: a.sets}
	a.bindPIs(res)

	st := streamState{res: res, a: a, sink: sink, maxLevel: maxLevel}
	e.buildLevelPlan(&st)

	var err error
	if PolicyParallelSafe(e.Policy) {
		err = e.streamLevels(&st)
	} else {
		err = e.streamIndexOrder(&st)
	}
	if err != nil {
		return nil, err
	}
	res.TotalCuts = st.total
	res.PeakCuts = st.peak
	return res, nil
}

// buildLevelPlan groups the AND nodes by level and precomputes the
// retirement schedule: level L may be retired once all levels up to
// retireAfter[L] — the maximum level of any AND fanout of an L-level node —
// have been fully merged (fanouts sit at strictly higher levels than their
// fanins, so the rule is well-formed for both drivers).
func (e *Enumerator) buildLevelPlan(st *streamState) {
	g := e.G
	nLv := int(st.maxLevel) + 1
	numAnds := g.NumAnds()

	a := st.a
	st.levelNodes = grow(&a.levelNodes, numAnds)
	st.levelOff = grow(&a.levelOff, nLv+1)
	st.levelCuts = grow(&a.levelCuts, nLv)
	st.retireLv = grow(&a.retireLv, nLv)
	st.retireOff = grow(&a.retireOff, nLv+1)
	retireAfter := grow(&a.retireAfter, nLv)
	cursor := grow(&a.cursor, nLv+1)

	// Counting sort of the AND nodes by level, ascending index within each.
	for i := range st.levelOff {
		st.levelOff[i] = 0
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			st.levelOff[g.Level(n)+1]++
		}
	}
	for l := 1; l <= nLv; l++ {
		st.levelOff[l] += st.levelOff[l-1]
	}
	copy(cursor, st.levelOff[:nLv])
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			l := g.Level(n)
			st.levelNodes[cursor[l]] = n
			cursor[l]++
		}
	}

	// retireAfter[L] = max level of any AND consumer of an L-level node.
	for l := int32(0); l < int32(nLv); l++ {
		retireAfter[l] = l
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		ln := g.Level(n)
		f0, f1 := g.Fanins(n)
		for _, f := range [2]uint32{f0.Node(), f1.Node()} {
			if g.IsAnd(f) {
				if lf := g.Level(f); ln > retireAfter[lf] {
					retireAfter[lf] = ln
				}
			}
		}
		// Choice members are extra consumers: a member's list must survive
		// until every node it enriches has been merged.
		if e.Choices != nil {
			for _, mem := range e.Choices.MembersOf(n) {
				if g.IsAnd(mem.Node) {
					if lm := g.Level(mem.Node); ln > retireAfter[lm] {
						retireAfter[lm] = ln
					}
				}
			}
		}
	}

	// Counting sort of the levels by retirement time.
	for i := range st.retireOff {
		st.retireOff[i] = 0
	}
	for l := 0; l < nLv; l++ {
		st.retireOff[retireAfter[l]+1]++
	}
	for m := 1; m <= nLv; m++ {
		st.retireOff[m] += st.retireOff[m-1]
	}
	copy(cursor, st.retireOff[:nLv])
	for l := int32(0); l < int32(nLv); l++ {
		m := retireAfter[l]
		st.retireLv[cursor[m]] = l
		cursor[m]++
	}
}

// streamLevels is the level-order driver: each level is merged (inline or
// across the worker pool), handed to the sink, and then every level whose
// consumers are all complete is retired.
func (e *Enumerator) streamLevels(st *streamState) error {
	workers := e.effectiveWorkers()
	for i := 0; i < workers; i++ {
		st.a.scratchFor(i, st.maxLevel)
	}
	st.scratches = st.a.scratches[:workers]
	for L := int32(0); L <= st.maxLevel; L++ {
		nodes := st.levelNodes[st.levelOff[L]:st.levelOff[L+1]]
		if len(nodes) > 0 {
			for _, s := range st.scratches {
				s.beginLevel(L)
			}
			if workers == 1 || len(nodes) < 2*workers {
				// Narrow levels run inline: a goroutine handoff per node
				// costs more than the merge it would parallelise.
				for _, n := range nodes {
					e.processNode(st.scratches[0], st.res, n)
				}
			} else {
				e.runLevel(st.res, st.scratches, nodes)
			}
			if err := st.completeLevel(L, nodes); err != nil {
				return err
			}
		}
		st.retireThrough(L)
	}
	return nil
}

// runLevel fans one wide level out across the worker scratches through
// par.For. It is a separate method so its closure captures only its
// parameters: inlined into streamLevels it would force streamState to the
// heap on every run, including the sequential path that never fans out.
func (e *Enumerator) runLevel(res *Result, scratches []*scratch, nodes []uint32) {
	// processNode cannot fail and the context is never canceled, so For
	// returns nil.
	_ = par.For(context.Background(), len(nodes), len(scratches), func(_ context.Context, w, i int) error {
		e.processNode(scratches[w], res, nodes[i])
		return nil
	})
}

// streamIndexOrder is the sequential driver for stateful policies: nodes are
// visited in topological index order (so e.g. a ShufflePolicy consumes its
// RNG in a fixed, reproducible sequence), and the sink fires for each level
// as soon as the completed prefix covers it.
func (e *Enumerator) streamIndexOrder(st *streamState) error {
	g := e.G
	s := st.a.scratchFor(0, st.maxLevel)
	st.scratches = st.a.scratches[:1]
	nLv := int(st.maxLevel) + 1
	remaining := grow(&st.a.cursor, nLv)
	for l := 0; l < nLv; l++ {
		remaining[l] = st.levelOff[l+1] - st.levelOff[l]
	}
	sinkLv := int32(0)
	advance := func() error {
		for sinkLv <= st.maxLevel && remaining[sinkLv] == 0 {
			nodes := st.levelNodes[st.levelOff[sinkLv]:st.levelOff[sinkLv+1]]
			if len(nodes) > 0 {
				if err := st.completeLevel(sinkLv, nodes); err != nil {
					return err
				}
			}
			st.retireThrough(sinkLv)
			sinkLv++
		}
		return nil
	}
	if err := advance(); err != nil {
		return err
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		e.processNode(s, st.res, n)
		remaining[g.Level(n)]--
		if err := advance(); err != nil {
			return err
		}
	}
	return nil
}

// completeLevel tallies the finished level and hands it to the sink.
func (st *streamState) completeLevel(L int32, nodes []uint32) error {
	cnt := 0
	for _, n := range nodes {
		cnt += len(st.res.Sets[n])
	}
	st.levelCuts[L] = int32(cnt)
	st.total += cnt
	st.live += cnt
	if st.live > st.peak {
		st.peak = st.live
	}
	if st.sink != nil {
		return st.sink(L, nodes, st.res.Sets)
	}
	return nil
}

// retireThrough releases every level whose retirement time is M: all their
// consumers sit at levels <= M, which are complete.
func (st *streamState) retireThrough(M int32) {
	for _, L := range st.retireLv[st.retireOff[M]:st.retireOff[M+1]] {
		st.retireLevel(L)
	}
}

func (st *streamState) retireLevel(L int32) {
	nodes := st.levelNodes[st.levelOff[L]:st.levelOff[L+1]]
	for _, n := range nodes {
		if b := st.a.blocks[n]; b != nil {
			st.a.putCutBlock(b)
			st.a.blocks[n] = nil
		}
		st.res.Sets[n] = nil
	}
	st.live -= int(st.levelCuts[L])
	for _, s := range st.scratches {
		s.releaseLevelChunks(L)
	}
}
