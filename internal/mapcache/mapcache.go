// Package mapcache provides the content-addressed stores of the serving
// flow. Store is one byte-budgeted LRU with a singleflight in front of its
// misses; the result cache here and the choice-view cache are both Stores.
//
// Cache is the result cache: a structural fingerprint of (graph, options)
// maps to the mapped netlist, its QoR and verification bit. Serve is its
// one front: exact repeats are answered in O(1); near-misses delta-remap
// against the nearest cached relative (by cone-hash overlap) through its
// ECO snapshot; and concurrent identical submissions collapse into one
// mapping whose result everyone shares. Hit lets a caller answer an exact
// repeat before it commits resources to a miss.
//
// Invalidation is purely content-driven: the key covers the full graph
// encoding (including PI/PO names, which surface in rendered netlists) and
// an options signature including library and model identity, so any change
// to either simply misses; stale entries age out by LRU.
package mapcache

import (
	"context"
	"sync/atomic"

	"slap/internal/aig"
	"slap/internal/mapper"
)

// Key is a 128-bit content address of a (graph, options) pair.
type Key struct {
	Hi, Lo uint64
}

// KeyOf fingerprints a graph plus an options-signature string. The graph
// part covers node types, fanin literals, PO literals and PI/PO names —
// byte-identical rendered output requires name identity, not just
// structural identity. Two independent FNV-1a passes with distinct offsets
// give 128 bits, making birthday collisions implausible at cache scale.
func KeyOf(g *aig.AIG, sig string) Key {
	const (
		offset1 = 0xcbf29ce484222325
		offset2 = 0x84222325cbf29ce4
		prime   = 0x100000001b3
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	mix := func(v uint64) {
		h1 = (h1 ^ v) * prime
		h2 = (h2 ^ (v ^ 0x9e3779b97f4a7c15)) * prime
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	mixStr(g.Name)
	mix(uint64(g.NumNodes()))
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		switch {
		case g.IsAnd(n):
			f0, f1 := g.Fanins(n)
			mix(3)
			mix(uint64(f0))
			mix(uint64(f1))
		case g.IsPI(n):
			mix(5)
		default:
			mix(7)
		}
	}
	for i := 0; i < g.NumPIs(); i++ {
		mixStr(g.PIName(i))
	}
	for _, po := range g.POs() {
		mix(uint64(po.Lit))
		mixStr(po.Name)
	}
	mixStr(sig)
	return Key{Hi: h1, Lo: h2}
}

// Snapshot is the ECO baseline a cache entry may carry. cover.Snapshot,
// the one snapshot of every policy, implements it.
type Snapshot interface {
	// NodeHashes returns the baseline graph's ordered cone hashes.
	NodeHashes() []uint64
	// SnapshotBytes estimates the snapshot's memory footprint.
	SnapshotBytes() int64
}

// Entry is one cached mapping result.
type Entry struct {
	// Key is the content address the entry was stored under.
	Key Key
	// Sig is the options signature the result was produced under; a delta
	// remap only uses snapshots whose signature matches the request.
	Sig string
	// Result is the complete mapping result (netlist, QoR, counters). It is
	// shared by reference: treat it as immutable.
	Result *mapper.Result
	// Verified records whether the netlist passed equivalence checking.
	Verified bool
	// Snap, when non-nil, is the ECO baseline snapshot for delta-remapping
	// structurally similar designs.
	Snap Snapshot
}

// Stats is a point-in-time counter snapshot of a Cache.
type Stats struct {
	StoreStats
	// ECOHits counts misses that were served by delta-remapping against a
	// nearest cached relative instead of a cold full map.
	ECOHits int64
	// Snapshots is the number of resident entries carrying an ECO baseline
	// snapshot — the cache's delta-remap warmth, exported so fleet
	// coordinators can judge how much affinity-routed traffic a worker can
	// answer without a cold map.
	Snapshots int
}

// DefaultBudget is the cache byte budget when none is configured.
const DefaultBudget = 256 << 20

// nearestScan bounds how many recent snapshot-bearing entries a nearest
// call examines; the scan is O(nodes) per candidate.
const nearestScan = 8

// minOverlap is the cone-hash overlap fraction below which a candidate is
// not worth delta-remapping (almost everything would be dirty anyway).
const minOverlap = 0.5

// Cache is a Store of mapping results plus its front, Serve, which
// delta-remaps a miss against its nearest cached relative. A caller that
// answers a Hit itself sends a miss on to Serve, which counts it. Safe for
// concurrent use.
type Cache struct {
	*Store[*Entry]
	ecoHits atomic.Int64
}

// New builds a cache with the given byte budget (<= 0 means DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{Store: NewStore(budget, entryBytes)}
}

// entryBytes estimates an entry's resident size: cells and their pin
// slices, POs, result bookkeeping and the optional snapshot.
func entryBytes(e *Entry) int64 {
	b := int64(256) // entry + result struct overhead
	if nl := e.Result.Netlist; nl != nil {
		b += int64(nl.NumCells()) * 96
		b += int64(nl.NumPIs()+nl.NumPOs()) * 48
	}
	b += int64(len(e.Result.Cover)) * 64
	b += int64(len(e.Sig))
	if e.Snap != nil {
		b += e.Snap.SnapshotBytes()
	}
	return b
}

// Add stores e under e.Key, as Store.Add does.
func (c *Cache) Add(e *Entry) { c.Store.Add(e.Key, e) }

// nearest scans the nearestScan most recently used snapshot-bearing
// entries with a matching options signature and returns the one whose baseline shares the
// largest cone-hash overlap with hashes, provided it clears minOverlap.
// The returned entry's snapshot is immutable and safe to use after the
// entry is evicted.
func (c *Cache) nearest(sig string, hashes []uint64) *Entry {
	var candidates []*Entry
	c.Recent(func(e *Entry) bool {
		if e.Snap != nil && e.Sig == sig {
			candidates = append(candidates, e)
		}
		return len(candidates) < nearestScan
	})

	var best *Entry
	bestScore := minOverlap
	for _, e := range candidates {
		if score := aig.OverlapFraction(hashes, e.Snap.NodeHashes()); score >= bestScore {
			best, bestScore = e, score
		}
	}
	return best
}

// Stats returns current counters. Snapshots is counted by a walk over the
// resident entries.
func (c *Cache) Stats() Stats {
	st := Stats{StoreStats: c.Store.Stats(), ECOHits: c.ecoHits.Load()}
	c.Recent(func(e *Entry) bool {
		if e.Snap != nil {
			st.Snapshots++
		}
		return true
	})
	return st
}

// Flow is one request's mapping as Serve runs it: the signature that
// joins the graph in the key, and the functions that map the graph cold,
// delta-remap it and verify a result.
type Flow struct {
	// Sig is the options signature: it pins every option that shapes the
	// result, and Delta only sees snapshots made under the same one.
	Sig string
	// Map maps the graph cold. With capture set it also returns the ECO
	// snapshot to cache with the result, or nil when it cannot make one.
	Map func(capture bool) (*mapper.Result, Snapshot, error)
	// Delta, when set, delta-remaps the graph against a cached relative's
	// snapshot. It returns the result, the snapshot to cache with it (may
	// be nil), the fraction of AND nodes re-processed, and ok; ok false,
	// with zero results, sends Serve to a cold Map. Serve captures
	// snapshots only for flows that set Delta, since nothing else reads
	// them.
	Delta func(Snapshot) (res *mapper.Result, next Snapshot, dirty float64, ok bool)
	// Verify, when set, checks each fresh result once; its verdict is
	// stored with the entry, so hits never re-run it.
	Verify func(*mapper.Result) bool
}

// Served is how Serve answered one request.
type Served struct {
	// Result is shared with the cache: treat it as immutable.
	Result *mapper.Result
	// Verified is the entry's equivalence verdict (false when no Verify
	// ever ran on it).
	Verified bool
	// Cached reports an exact-key hit or a result shared with a concurrent
	// identical request.
	Cached bool
	// ECO reports a miss served by delta-remapping; Dirty is then the
	// fraction of AND nodes re-processed.
	ECO   bool
	Dirty float64
}

// Serve answers one mapping of g through the cache under key, which must
// be KeyOf(g, f.Sig): a caller that has already looked the key up passes
// it on, so the graph is hashed once. Inside a singleflight on key the
// leader looks it up, then on a miss tries f.Delta against the nearest
// cached relative, falls back to a cold f.Map, verifies the fresh result
// and adds it; concurrent identical calls share the leader's entry and
// count as hits. On a nil cache Serve runs f.Map and f.Verify only.
func (c *Cache) Serve(ctx context.Context, g *aig.AIG, key Key, f Flow) (Served, error) {
	var sv Served
	if c == nil {
		res, _, err := f.Map(false)
		if err != nil {
			return sv, err
		}
		return Served{Result: res, Verified: f.Verify != nil && f.Verify(res)}, nil
	}
	e, cached, err := c.Do(ctx, key, func() (*Entry, error) {
		e := &Entry{Key: key, Sig: f.Sig}
		if f.Delta != nil {
			if near := c.nearest(f.Sig, g.ConeHashes()); near != nil {
				e.Result, e.Snap, sv.Dirty, sv.ECO = f.Delta(near.Snap)
			}
		}
		if sv.ECO {
			c.ecoHits.Add(1)
		} else {
			var err error
			if e.Result, e.Snap, err = f.Map(f.Delta != nil); err != nil {
				return nil, err
			}
		}
		if f.Verify != nil {
			e.Verified = f.Verify(e.Result)
		}
		return e, nil
	})
	if err != nil {
		return Served{}, err
	}
	sv.Result, sv.Verified, sv.Cached = e.Result, e.Verified, cached
	return sv, nil
}
