// ECO delta-remapping: when an incoming graph is a small edit of a
// previously mapped baseline, re-enumerating every node's cuts is almost
// entirely wasted work — cut lists are a pure function of a node's fanin
// cone (for cone-local policies), so every node whose cone survived the
// edit would get back exactly the list it had. MapDelta aligns the new
// graph against a Snapshot of the baseline by ordered cone hash, walks the
// dirty frontier (an edited node dirties its entire fanout cone, exactly
// the propagation the level-retirement wavefront bounds), and runs the
// ordinary MapStream pipeline with the snapshot's cut lists installed for
// clean nodes, so only dirty ones re-run the merge/policy pipeline. The
// result is byte-identical to a full map of the edited graph.
package mapper

import (
	"errors"
	"fmt"
	"unsafe"

	"slap/internal/aig"
	"slap/internal/cuts"
)

// ErrDeltaIneligible reports that the mapping options cannot support delta
// remapping (stateful or non-cone-local policy, a choice source, or no
// snapshot); callers should fall back to a full map.
var ErrDeltaIneligible = errors.New("mapper: options not eligible for delta remapping")

// ErrSnapshotMismatch reports that the snapshot was captured under a
// different enumeration configuration than the one requested.
var ErrSnapshotMismatch = errors.New("mapper: snapshot enumeration signature mismatch")

// ECOPolicySig returns a signature identifying the enumeration behaviour of
// an ECO-eligible policy, or "" when the policy cannot be delta-remapped.
// Eligible policies are pure per-node functions of the cone under monotone
// id maps: the nil (exhaustive) policy, UnlimitedPolicy and DefaultPolicy
// (length/volume/lexicographic sort + dominance filter + truncation).
// ShufflePolicy carries RNG state across nodes and SingleAttributePolicy
// scores with non-cone-local fanout features, so both are ineligible.
func ECOPolicySig(p cuts.Policy) string {
	switch q := p.(type) {
	case nil:
		return "exhaustive"
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

// enumSig extends the policy signature with every knob that changes the
// enumerated lists.
func enumSig(policy cuts.Policy, mergeCap int) string {
	ps := ECOPolicySig(policy)
	if ps == "" {
		return ""
	}
	if mergeCap == 0 {
		mergeCap = cuts.DefaultMergeCap
	}
	return fmt.Sprintf("%s/mc=%d", ps, mergeCap)
}

// leafChunk is the allocation granularity of a Snapshot's leaf storage.
const leafChunk = 4096

// cutBytes approximates the in-memory footprint of one Cut.
const cutBytes = int64(unsafe.Sizeof(cuts.Cut{}))

// Snapshot is a reusable record of one full mapping run: the baseline
// graph's ordered cone hashes plus a deep copy of every AND node's
// post-policy cut list (captured via Options.CaptureCuts). It is immutable
// after the run and safe for concurrent MapDelta calls.
type Snapshot struct {
	// EnumSig identifies the policy/merge-cap configuration the lists were
	// enumerated under; MapDelta refuses mismatched options.
	EnumSig string

	hashes    []uint64
	sets      [][]cuts.Cut
	leafArena []uint32
	bytes     int64
}

// NewSnapshot prepares a snapshot of g for the given options. Install its
// Capture method as Options.CaptureCuts on the full mapping run that
// produces the baseline result. Returns nil when the options are not
// ECO-eligible (callers may still map, they just cannot delta-remap later).
func NewSnapshot(g *aig.AIG, opt Options) *Snapshot {
	sig := enumSig(opt.Policy, opt.MergeCap)
	if sig == "" {
		return nil
	}
	hashes := g.ConeHashes()
	return &Snapshot{
		EnumSig: sig,
		hashes:  hashes,
		sets:    make([][]cuts.Cut, g.NumNodes()),
		bytes:   int64(len(hashes))*8 + int64(g.NumNodes())*24,
	}
}

// intern copies ls into the snapshot's chunked leaf storage.
func (s *Snapshot) intern(ls []uint32) []uint32 {
	if len(s.leafArena)+len(ls) > cap(s.leafArena) {
		sz := leafChunk
		if len(ls) > sz {
			sz = len(ls)
		}
		s.leafArena = make([]uint32, 0, sz)
	}
	i := len(s.leafArena)
	s.leafArena = append(s.leafArena, ls...)
	return s.leafArena[i : i+len(ls) : i+len(ls)]
}

// Capture deep-copies one node's post-policy cut list into the snapshot.
// It matches the Options.CaptureCuts hook signature. Calls arrive from a
// single goroutine (the enumeration driver), never concurrently.
func (s *Snapshot) Capture(n uint32, cs []cuts.Cut) {
	list := make([]cuts.Cut, len(cs))
	for i := range cs {
		c := cs[i]
		c.Leaves = s.intern(c.Leaves)
		list[i] = c
		s.bytes += cutBytes + int64(len(c.Leaves))*4
	}
	s.sets[n] = list
}

// NodeHashes returns the baseline graph's ordered cone hashes (the
// mapcache nearest-relative scan key).
func (s *Snapshot) NodeHashes() []uint64 { return s.hashes }

// SnapshotBytes estimates the snapshot's memory footprint for cache
// accounting.
func (s *Snapshot) SnapshotBytes() int64 { return s.bytes }

// DeltaStats reports how much work a MapDelta call skipped.
type DeltaStats struct {
	// TotalAnds is the AND-node count of the edited graph.
	TotalAnds int
	// DirtyAnds is the number of AND nodes whose cut lists were recomputed.
	DirtyAnds int
	// ReusedCuts counts cuts translated from the snapshot instead of merged.
	ReusedCuts int
	// DirtyFraction is DirtyAnds / TotalAnds (0 when the graph has no ANDs).
	DirtyFraction float64
}

// MapDelta maps g by reusing the snapshot of a structurally similar
// baseline: clean nodes (cone hash matched, all fanins clean) take their
// cut lists from the snapshot via the alignment's id translation, dirty
// nodes re-run the merge/policy pipeline, and everything else is the
// ordinary MapStream flow (including its Workers and Pool). The Result is
// byte-identical to MapStream(g, opt) — same netlist, QoR and counters —
// except PeakCuts, which counts the installed lists as live for their
// whole level window like any other.
func MapDelta(g *aig.AIG, opt Options, snap *Snapshot) (*Result, *DeltaStats, error) {
	if opt.Library == nil {
		return nil, nil, fmt.Errorf("mapper: Options.Library is required")
	}
	if snap == nil || opt.Choices != nil {
		return nil, nil, ErrDeltaIneligible
	}
	sig := enumSig(opt.Policy, opt.MergeCap)
	if sig == "" {
		return nil, nil, ErrDeltaIneligible
	}
	if sig != snap.EnumSig {
		return nil, nil, fmt.Errorf("%w: have %q, want %q", ErrSnapshotMismatch, snap.EnumSig, sig)
	}

	al := aig.Align(g.ConeHashes(), snap.hashes)
	clean := cleanNodes(g, al)

	// Translate the snapshot's lists for clean nodes through the (monotone)
	// alignment up front, so the enumerator's reuse hook — called from
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
			for i := range snap.sets[al.NewToOld[n]] {
				leafNeed += len(snap.sets[al.NewToOld[n]][i].Leaves)
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
		reused[n] = list
		st.ReusedCuts += len(list)
	}
	if st.TotalAnds > 0 {
		st.DirtyFraction = float64(st.DirtyAnds) / float64(st.TotalAnds)
	}

	opt.CaptureCuts = nil
	res, err := mapStream(g, opt, func(n uint32) []cuts.Cut { return reused[n] })
	if err != nil {
		return nil, nil, err
	}
	return res, st, nil
}

// cleanNodes computes the clean set: a node is clean when its ordered cone
// hash matched the baseline (monotonically) and all its fanins are clean.
// Iterating ids ascending is exactly the level wavefront: an edit dirties
// its whole transitive fanout frontier and nothing else.
func cleanNodes(g *aig.AIG, al *aig.Alignment) []bool {
	clean := make([]bool, g.NumNodes())
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		if al.NewToOld[n] < 0 {
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
