// ECO delta-remapping for the SLAP flow. The mapper-level delta
// (internal/mapper/eco.go) reuses cut lists for nodes whose fanin cone
// survived an edit; the SLAP flow needs a stricter clean predicate because
// its keep decision consults non-cone-local graph features: a cut
// embedding reads the fanout count, inverted-fanout flag and reverse level
// of the root, its fanins, the leaves and their fanins, and normalises
// every level feature by the whole graph's depth (internal/embed). A
// SlapSnapshot therefore records, alongside the baseline's ordered cone
// hashes and ML-filtered cut lists, the external feature vector of every
// node; a node is slap-clean only when its cone matched structurally, its
// own external features are unchanged, and the same holds transitively for
// its fanins — which covers every node any of its cut embeddings can read.
// Depth changes rescale all level features at once, so a depth mismatch
// makes the whole snapshot ineligible and callers fall back to a cold map.
//
// Enumeration cannot be skipped for dirty nodes (they merge from their
// fanins' unlimited lists, which the snapshot does not retain), so MapDelta
// re-runs the exhaustive enumeration; the expensive stage — per-cut CNN
// inference — runs on dirty nodes only, and clean nodes take their
// filtered lists from the snapshot through the monotone id alignment. The
// combined lists feed a mapper.Stream in ascending node order (a
// topological order), so the result is byte-identical to a full SLAP map
// of the edited graph.
package core

import (
	"context"
	"errors"
	"fmt"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/mapper"
)

// ErrSlapDeltaIneligible reports that a snapshot cannot support SLAP delta
// remapping of the given graph (nil snapshot or changed graph depth);
// callers should fall back to a full map.
var ErrSlapDeltaIneligible = errors.New("core: snapshot not usable for delta remapping")

// ErrSlapSnapshotMismatch reports that the snapshot was captured under a
// different SLAP configuration (model, library, thresholds or merge cap).
var ErrSlapSnapshotMismatch = errors.New("core: snapshot configuration mismatch")

// ecoLeafChunk sizes the snapshot's chunked leaf-arena allocations.
const ecoLeafChunk = 4096

// ConfigSig identifies everything about this SLAP instance that shapes the
// mapping result: model and library identity, the keep thresholds, the
// enumeration merge cap and the multi-round/choice knobs.
// Workers, Batch and Pool are deliberately excluded — they change
// scheduling, never results (the batched kernels accumulate in per-sample
// order). Identity is by pointer, so signatures — and the cache keys built
// from them — are valid within one process only, which is exactly the
// mapcache's lifetime.
func (s *SLAP) ConfigSig() string {
	mc := s.MergeCap
	if mc == 0 {
		mc = cuts.DefaultMergeCap
	}
	rounds := s.Rounds
	if rounds < 1 {
		rounds = 1
	}
	df := s.DelayFactor
	if df < 1 {
		df = 1
	}
	ch := "off"
	if s.Choices {
		// The choice-options content signature (Workers excluded, defaults
		// folded in) — two configs that build different views must never
		// share a cached mapping result.
		ch = s.ChoiceOpts.Sig()
	}
	return fmt.Sprintf("slap/model=%p/lib=%s@%p/good=%d/avg=%d/mc=%d/rounds=%d/df=%g/choices=%s",
		s.Model, s.Library.Name, s.Library, s.GoodMax, s.AvgMax, mc, rounds, df, ch)
}

// SlapSnapshot is a reusable record of one full SLAP mapping run: the
// baseline graph's ordered cone hashes, every AND node's ML-filtered cut
// list (deep copies), and the external features the embeddings consult.
// It is immutable after capture and safe for concurrent MapDeltaContext
// calls; it also satisfies mapcache.Snapshot.
type SlapSnapshot struct {
	sig   string
	depth int32

	hashes    []uint64
	sets      [][]cuts.Cut
	leafArena []uint32

	fanout   []int32
	invOut   []bool
	revLevel []int32

	bytes int64
}

// NewSnapshot records the structural and external-feature baseline of g
// for this SLAP configuration. Cut lists are filled in by
// MapStreamCaptureContext or by MapDeltaContext itself when it chains
// snapshots.
func (s *SLAP) NewSnapshot(g *aig.AIG) *SlapSnapshot {
	n := g.NumNodes()
	snap := &SlapSnapshot{
		sig:      s.ConfigSig(),
		depth:    g.MaxLevel(),
		hashes:   g.ConeHashes(),
		sets:     make([][]cuts.Cut, n),
		fanout:   make([]int32, n),
		invOut:   make([]bool, n),
		revLevel: make([]int32, n),
		// hashes + per-node set header + fanout + invOut + revLevel.
		bytes: int64(n) * (8 + 24 + 4 + 1 + 4),
	}
	for i := uint32(0); i < uint32(n); i++ {
		snap.fanout[i] = g.Fanout(i)
		snap.invOut[i] = g.HasInvertedFanout(i)
		snap.revLevel[i] = g.ReverseLevel(i)
	}
	return snap
}

// intern copies ls into the snapshot's chunked leaf storage.
func (sn *SlapSnapshot) intern(ls []uint32) []uint32 {
	if len(sn.leafArena)+len(ls) > cap(sn.leafArena) {
		sz := ecoLeafChunk
		if len(ls) > sz {
			sz = len(ls)
		}
		sn.leafArena = make([]uint32, 0, sz)
	}
	i := len(sn.leafArena)
	sn.leafArena = append(sn.leafArena, ls...)
	return sn.leafArena[i : i+len(ls) : i+len(ls)]
}

// capture deep-copies one node's filtered cut list into the snapshot.
// Calls arrive from a single goroutine (the flow driver).
func (sn *SlapSnapshot) capture(n uint32, cs []cuts.Cut) {
	list := make([]cuts.Cut, len(cs))
	for i := range cs {
		c := cs[i]
		c.Leaves = sn.intern(c.Leaves)
		list[i] = c
		sn.bytes += snapCutBytes + int64(len(c.Leaves))*4
	}
	sn.sets[n] = list
}

// snapCutBytes approximates the in-memory footprint of one Cut header.
const snapCutBytes = int64(64)

// NodeHashes returns the baseline graph's ordered cone hashes — the
// mapcache nearest-relative scan key.
func (sn *SlapSnapshot) NodeHashes() []uint64 { return sn.hashes }

// SnapshotBytes estimates the snapshot's memory footprint for cache
// accounting.
func (sn *SlapSnapshot) SnapshotBytes() int64 { return sn.bytes }

// MapStreamCaptureContext runs the SLAP flow and additionally records the
// snapshot that later MapDeltaContext calls remap against: the snapshot
// captures each level's filtered lists just before the incremental mapper
// consumes them (and before the enumerator retires the level's storage).
// It always runs the single-round, no-choice flow: snapshots exist to feed
// the ECO delta path, which is defined for that configuration only
// (MapCached gates capture accordingly).
func (s *SLAP) MapStreamCaptureContext(ctx context.Context, g *aig.AIG) (*mapper.Result, *SlapSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	st, err := mapper.NewStream(g, mapper.Options{Library: s.Library})
	if err != nil {
		return nil, nil, err
	}
	snap := s.NewSnapshot(g)
	res, err := s.streamFiltered(ctx, g, nil, func(n uint32, cs, _ []cuts.Cut) {
		if g.IsAnd(n) {
			snap.capture(n, cs)
		}
		st.ConsumeNode(n, cs)
	})
	if err != nil {
		return nil, nil, err
	}
	st.SetPeakCuts(res.PeakCuts)
	r, err := st.Finish()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	r.PolicyName = "slap"
	return r, snap, nil
}

// MapDeltaContext maps g by reusing the snapshot of a structurally similar
// baseline mapped under the same SLAP configuration: slap-clean nodes take
// their ML-filtered cut lists from the snapshot through the monotone id
// alignment (skipping all inference), dirty nodes are re-classified, and
// the combined lists feed the unchanged mapper. It returns the result, a
// fresh snapshot of g (so ECO chains keep delta-remapping), and the dirty
// statistics. The Result is byte-identical to MapStreamContext(g) except
// PeakCuts, which reports the materialised enumeration total.
//
// Like ClassifyContext it collects the whole cut universe with Run and
// filters the dirty nodes in one pass, so the inference workers
// meet no per-level barrier.
func (s *SLAP) MapDeltaContext(ctx context.Context, g *aig.AIG, snap *SlapSnapshot) (*mapper.Result, *SlapSnapshot, *mapper.DeltaStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	if snap == nil {
		return nil, nil, nil, ErrSlapDeltaIneligible
	}
	if sig := s.ConfigSig(); sig != snap.sig {
		return nil, nil, nil, fmt.Errorf("%w: have %q, want %q", ErrSlapSnapshotMismatch, snap.sig, sig)
	}
	if d := g.MaxLevel(); d != snap.depth {
		return nil, nil, nil, fmt.Errorf("%w: graph depth %d != baseline depth %d (every level feature rescales)",
			ErrSlapDeltaIneligible, d, snap.depth)
	}

	al := aig.Align(g.ConeHashes(), snap.hashes)
	clean := slapClean(g, al, snap)

	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers}
	res := enum.Run()
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Partition the AND nodes and pre-size the translated-leaf arena.
	st := &mapper.DeltaStats{}
	var dirty []uint32
	var leafNeed int
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		st.TotalAnds++
		if clean[n] {
			for i := range snap.sets[al.NewToOld[n]] {
				leafNeed += len(snap.sets[al.NewToOld[n]][i].Leaves)
			}
		} else {
			dirty = append(dirty, n)
		}
	}

	// Clean nodes: translate the snapshot's filtered lists. The alignment is
	// monotone, so list order, leaf order and therefore every downstream
	// tie-break are preserved; external-feature equality (checked by
	// slapClean transitively over the fanin cone) makes the embeddings — and
	// hence the keep decisions being reused — bit-identical.
	leaves := make([]uint32, 0, leafNeed)
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) || !clean[n] {
			continue
		}
		old := snap.sets[al.NewToOld[n]]
		list := make([]cuts.Cut, len(old))
		for i := range old {
			c := old[i]
			base := len(leaves)
			for _, l := range c.Leaves {
				leaves = append(leaves, uint32(al.OldToNew[l]))
			}
			c.Leaves = leaves[base : base+len(c.Leaves) : base+len(c.Leaves)]
			c.Sig = cuts.LeafSig(c.Leaves)
			list[i] = c
		}
		res.Sets[n] = list
		st.ReusedCuts += len(list)
	}

	// Dirty nodes: run the ML keep decision as usual.
	if len(dirty) > 0 {
		emb := embed.NewEmbedder(g)
		emb.PrecomputeAll()
		if err := s.filterNodes(ctx, emb, dirty, res.Sets, res.Sets, nil, s.inferScratches()); err != nil {
			return nil, nil, nil, err
		}
	}
	st.DirtyAnds = len(dirty)
	if st.TotalAnds > 0 {
		st.DirtyFraction = float64(st.DirtyAnds) / float64(st.TotalAnds)
	}

	// Chain: snapshot the new graph's filtered lists, and feed them to the
	// mapper in ascending node order.
	next := s.NewSnapshot(g)
	ms, err := mapper.NewStream(g, mapper.Options{Library: s.Library})
	if err != nil {
		return nil, nil, nil, err
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			next.capture(n, res.Sets[n])
			ms.ConsumeNode(n, res.Sets[n])
		}
	}
	ms.SetPeakCuts(res.PeakCuts)
	mres, err := ms.Finish()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	mres.PolicyName = "slap"
	return mres, next, st, nil
}

// slapClean computes the SLAP clean set: a node is clean when its ordered
// cone hash matched the baseline, its external features (fanout count,
// inverted-fanout flag, reverse level) are unchanged, and all its fanins
// are clean. The transitive fanin condition covers every node a cut
// embedding rooted at n can read: fanins, leaves, and leaves' fanins all
// lie in n's transitive fanin cone. Iterating ids ascending is the level
// wavefront, so one pass suffices.
func slapClean(g *aig.AIG, al *aig.Alignment, snap *SlapSnapshot) []bool {
	clean := make([]bool, g.NumNodes())
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		old := al.NewToOld[n]
		if old < 0 {
			continue
		}
		if g.Fanout(n) != snap.fanout[old] ||
			g.HasInvertedFanout(n) != snap.invOut[old] ||
			g.ReverseLevel(n) != snap.revLevel[old] {
			continue
		}
		if g.IsAnd(n) {
			f0, f1 := g.Fanins(n)
			if !clean[f0.Node()] || !clean[f1.Node()] {
				continue
			}
		}
		clean[n] = true
	}
	return clean
}
