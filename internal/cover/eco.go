// ECO delta-remapping: when an incoming graph is a small edit of a
// previously mapped baseline, most of its nodes would get back exactly the
// cut list they had. A Snapshot records the baseline's ordered cone hashes
// and every AND node's finalised list (post-policy, or kept by a level
// filter); Reuse aligns a new graph against it by ordered cone hash and
// translates the lists of its clean nodes, which Engine.Enumerate installs
// instead of recomputing them. The result is byte-identical to a cold map
// of the edited graph.
//
// A node is clean when its cone hash matched the baseline and its fanins
// are clean, so an edit dirties its whole transitive fanout frontier. That
// is exact for cone-local policies, whose lists are a pure function of the
// cone. A level filter's keep decision also reads features outside the
// cone: SLAP's cut embedding reads the fanout count, inverted-fanout flag
// and reverse level of the root, its fanins, the leaves and their fanins,
// and normalises every level by the graph's depth (internal/embed). A
// filter snapshot therefore records those features as well, and a node is
// clean only when its own are unchanged too; every node an embedding reads
// lies in the root's fanin cone, so the transitive fanin rule covers them.
// A depth change rescales every level feature at once, so it makes a
// filter snapshot ineligible.
package cover

import (
	"errors"
	"fmt"
	"unsafe"

	"slap/internal/aig"
	"slap/internal/cuts"
)

// ErrDeltaIneligible reports that a delta remap cannot run: no snapshot,
// a policy that cannot be delta-remapped, a choice source, a multi-round
// filter schedule, or a graph depth a filter snapshot does not share.
// Callers should fall back to a full map.
var ErrDeltaIneligible = errors.New("cover: not eligible for delta remapping")

// ErrSnapshotMismatch reports that the snapshot was captured under a
// different policy than the one requested.
var ErrSnapshotMismatch = errors.New("cover: snapshot signature mismatch")

// ECOPolicySig returns a signature identifying the lists an ECO-eligible
// policy produces, or "" when the policy cannot be delta-remapped. Eligible
// policies are the pure per-node functions of the cone under monotone id
// maps — the nil (exhaustive) policy, UnlimitedPolicy and DefaultPolicy —
// and level filters, signed by their Sig. ShufflePolicy carries RNG state
// across nodes and SingleAttributePolicy scores with fanout features no
// snapshot records, so both are ineligible.
func ECOPolicySig(p cuts.Policy) string {
	switch q := p.(type) {
	case nil:
		return "exhaustive"
	case cuts.LevelFilter:
		return q.Sig()
	case cuts.UnlimitedPolicy:
		return "unlimited"
	case cuts.DefaultPolicy:
		limit := q.Limit
		if limit == 0 {
			limit = cuts.DefaultCutLimit
		}
		return fmt.Sprintf("abc-default/%d", limit)
	}
	return ""
}

// Snapshot footprint estimates for cache accounting: per node, its cone
// hash and list header, plus under a filter its fanout, inverted-fanout
// flag and reverse level; per cut, a header plus 4 bytes per leaf. Filter
// snapshots charge 64 bytes per cut header rather than the struct's 48,
// the figure SLAP snapshots have always been charged: a byte-budgeted
// cache's evictions depend on it.
const (
	nodeBytes      = 8 + 24
	featureBytes   = 4 + 1 + 4
	filterCutBytes = 64
	cutBytes       = int64(unsafe.Sizeof(cuts.Cut{}))
)

// Snapshot is a reusable record of one full mapping run: the baseline
// graph's ordered cone hashes, a deep copy of every AND node's finalised
// cut list (captured through Capture) and, for a level filter, the
// features its keep decision reads outside the cone. It is immutable after
// the run and safe for concurrent delta remaps; it satisfies
// mapcache.Snapshot.
type Snapshot struct {
	sig       string
	hashes    []uint64
	sets      [][]cuts.Cut
	leafArena []uint32
	bytes     int64
	cutBytes  int64

	// Filter snapshots only: the baseline depth and per-node features.
	depth    int32
	fanout   []int32
	invOut   []bool
	revLevel []int32
}

// NewSnapshot prepares a snapshot of g for a run under policy. Install its
// Capture method as the run's capture hook. It returns nil when the policy
// is not ECO-eligible.
func NewSnapshot(g *aig.AIG, policy cuts.Policy) *Snapshot {
	sig := ECOPolicySig(policy)
	if sig == "" {
		return nil
	}
	n := g.NumNodes()
	s := &Snapshot{
		sig:      sig,
		hashes:   g.ConeHashes(),
		sets:     make([][]cuts.Cut, n),
		bytes:    int64(n) * nodeBytes,
		cutBytes: cutBytes,
	}
	if _, ok := policy.(cuts.LevelFilter); ok {
		s.bytes += int64(n) * featureBytes
		s.cutBytes = filterCutBytes
		s.depth = g.MaxLevel()
		s.fanout, s.invOut, s.revLevel = make([]int32, n), make([]bool, n), make([]int32, n)
		for i := uint32(0); i < uint32(n); i++ {
			s.fanout[i] = g.Fanout(i)
			s.invOut[i] = g.HasInvertedFanout(i)
			s.revLevel[i] = g.ReverseLevel(i)
		}
	}
	return s
}

// intern copies ls into the snapshot's chunked leaf storage.
func (s *Snapshot) intern(ls []uint32) []uint32 {
	if len(s.leafArena)+len(ls) > cap(s.leafArena) {
		s.leafArena = make([]uint32, 0, max(leafChunk, len(ls)))
	}
	i := len(s.leafArena)
	s.leafArena = append(s.leafArena, ls...)
	return s.leafArena[i : i+len(ls) : i+len(ls)]
}

// Capture deep-copies one node's finalised cut list into the snapshot.
// Calls arrive from a single goroutine, the one that enumerates.
func (s *Snapshot) Capture(n uint32, cs []cuts.Cut) {
	list := make([]cuts.Cut, len(cs))
	for i := range cs {
		c := cs[i]
		c.Leaves = s.intern(c.Leaves)
		list[i] = c
		s.bytes += s.cutBytes + int64(len(c.Leaves))*4
	}
	s.sets[n] = list
}

// NodeHashes returns the baseline graph's ordered cone hashes (the
// mapcache nearest-relative scan key).
func (s *Snapshot) NodeHashes() []uint64 { return s.hashes }

// SnapshotBytes estimates the snapshot's memory footprint for cache
// accounting.
func (s *Snapshot) SnapshotBytes() int64 { return s.bytes }

// DeltaStats reports how much work a delta remap skipped.
type DeltaStats struct {
	// TotalAnds is the AND-node count of the edited graph.
	TotalAnds int
	// DirtyAnds is the number of AND nodes whose cut lists were recomputed.
	DirtyAnds int
	// ReusedCuts counts cuts translated from the snapshot instead of
	// recomputed.
	ReusedCuts int
	// DirtyFraction is DirtyAnds / TotalAnds (0 when the graph has no ANDs).
	DirtyFraction float64
}

// Reuse aligns g against the snapshot and returns, for every clean AND
// node of g, the baseline's list with its leaves translated through the
// alignment, and nil for the rest; pass it to Engine.Enumerate. The
// alignment is monotone, so list order, leaf order and every downstream
// tie-break are preserved. policy must sign as the snapshot's did.
func (s *Snapshot) Reuse(g *aig.AIG, policy cuts.Policy) ([][]cuts.Cut, *DeltaStats, error) {
	if s == nil {
		return nil, nil, ErrDeltaIneligible
	}
	sig := ECOPolicySig(policy)
	if sig == "" {
		return nil, nil, ErrDeltaIneligible
	}
	if sig != s.sig {
		return nil, nil, fmt.Errorf("%w: have %q, want %q", ErrSnapshotMismatch, s.sig, sig)
	}
	if d := g.MaxLevel(); s.fanout != nil && d != s.depth {
		return nil, nil, fmt.Errorf("%w: graph depth %d != baseline depth %d (every level feature rescales)",
			ErrDeltaIneligible, d, s.depth)
	}
	al := aig.Align(g.ConeHashes(), s.hashes)
	clean := s.cleanNodes(g, al)

	// Translate up front, so the enumerator's reuse hook — called from
	// every wavefront worker — is a read-only lookup. Leaves live in one
	// contiguous arena sized exactly.
	st := &DeltaStats{}
	var leafNeed int
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		st.TotalAnds++
		if clean[n] {
			for i := range s.sets[al.NewToOld[n]] {
				leafNeed += len(s.sets[al.NewToOld[n]][i].Leaves)
			}
		} else {
			st.DirtyAnds++
		}
	}
	leaves := make([]uint32, 0, leafNeed)
	reused := make([][]cuts.Cut, g.NumNodes())
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) || !clean[n] {
			continue
		}
		old := s.sets[al.NewToOld[n]]
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
		reused[n] = list
		st.ReusedCuts += len(list)
	}
	if st.TotalAnds > 0 {
		st.DirtyFraction = float64(st.DirtyAnds) / float64(st.TotalAnds)
	}
	return reused, st, nil
}

// cleanNodes computes the clean set: a node is clean when its ordered cone
// hash matched the baseline (monotonically), its recorded features (filter
// snapshots only) are unchanged, and all its fanins are clean. Iterating
// ids ascending is the level wavefront, so one pass suffices.
func (s *Snapshot) cleanNodes(g *aig.AIG, al *aig.Alignment) []bool {
	clean := make([]bool, g.NumNodes())
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		old := al.NewToOld[n]
		if old < 0 {
			continue
		}
		if s.fanout != nil && (g.Fanout(n) != s.fanout[old] ||
			g.HasInvertedFanout(n) != s.invOut[old] ||
			g.ReverseLevel(n) != s.revLevel[old]) {
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
