// Package mapcache provides a bounded, content-addressed cache of mapping
// results for the serving flow: a structural fingerprint of (graph,
// options) maps to the mapped netlist, its QoR and verification bit, with
// LRU eviction under a byte-size budget. Serve is its one front: exact
// repeats are answered in O(1); near-misses delta-remap against the
// nearest cached relative (by cone-hash overlap) through its ECO snapshot;
// and a singleflight group collapses N concurrent identical submissions
// into one mapping whose result everyone shares. Hit lets a caller answer
// an exact repeat before it commits resources to a miss.
//
// Invalidation is purely content-driven: the key covers the full graph
// encoding (including PI/PO names, which surface in rendered netlists) and
// an options signature including library and model identity, so any change
// to either simply misses; stale entries age out by LRU.
package mapcache

import (
	"container/list"
	"context"
	"sync"

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

	bytes int64
	elem  *list.Element
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts exact-key lookups served from the cache (including
	// singleflight followers who shared a leader's fresh result).
	Hits int64
	// Misses counts lookups that found nothing under the exact key.
	Misses int64
	// ECOHits counts misses that were served by delta-remapping against a
	// nearest cached relative instead of a cold full map.
	ECOHits int64
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions int64
	// Bytes is the current estimated resident size.
	Bytes int64
	// Entries is the current entry count.
	Entries int
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

// Cache is a byte-budgeted LRU of mapping results with an integrated
// singleflight group. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *Entry
	byKey  map[Key]*list.Element

	hits, misses, ecoHits, evictions int64
	snapshots                        int

	flight *Flight[*Entry]
}

// New builds a cache with the given byte budget (<= 0 means DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{
		budget: budget,
		ll:     list.New(),
		byKey:  make(map[Key]*list.Element),
		flight: NewFlight[*Entry](),
	}
}

// Get returns the entry stored under k, promoting it to most recently
// used. The hit/miss counters track every call.
func (c *Cache) Get(k Key) (*Entry, bool) { return c.lookup(k, true) }

// Hit is Get counting only hits. A caller that answers a hit itself and
// sends a miss on to Serve leaves the miss to Serve's own Get, so each
// request counts one hit or one miss.
func (c *Cache) Hit(k Key) (*Entry, bool) { return c.lookup(k, false) }

func (c *Cache) lookup(k Key, countMiss bool) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*Entry), true
	}
	if countMiss {
		c.misses++
	}
	return nil, false
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

// Add stores an entry under its Key, replacing any previous occupant, and
// evicts least-recently-used entries until the byte budget holds. An entry
// larger than the whole budget is not cached.
func (c *Cache) Add(e *Entry) {
	e.bytes = entryBytes(e)
	if e.bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.Key]; ok {
		old := el.Value.(*Entry)
		c.bytes -= old.bytes
		if old.Snap != nil {
			c.snapshots--
		}
		c.ll.Remove(el)
		delete(c.byKey, e.Key)
	}
	e.elem = c.ll.PushFront(e)
	c.byKey[e.Key] = e.elem
	c.bytes += e.bytes
	if e.Snap != nil {
		c.snapshots++
	}
	for c.bytes > c.budget && c.ll.Len() > 1 {
		c.evictOldestLocked()
	}
}

func (c *Cache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	old := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.byKey, old.Key)
	c.bytes -= old.bytes
	if old.Snap != nil {
		c.snapshots--
	}
	c.evictions++
}

// nearest scans the most recently used snapshot-bearing entries with a
// matching options signature and returns the one whose baseline shares the
// largest cone-hash overlap with hashes, provided it clears minOverlap.
// The returned entry's snapshot is immutable and safe to use after the
// entry is evicted.
func (c *Cache) nearest(sig string, hashes []uint64) *Entry {
	c.mu.Lock()
	var candidates []*Entry
	scanned := 0
	for el := c.ll.Front(); el != nil && scanned < nearestScan; el = el.Next() {
		e := el.Value.(*Entry)
		if e.Snap == nil || e.Sig != sig {
			continue
		}
		candidates = append(candidates, e)
		scanned++
	}
	c.mu.Unlock()

	var best *Entry
	bestScore := minOverlap
	for _, e := range candidates {
		if score := aig.OverlapFraction(hashes, e.Snap.NodeHashes()); score >= bestScore {
			best, bestScore = e, score
		}
	}
	return best
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		ECOHits:   c.ecoHits,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   c.ll.Len(),
		Snapshots: c.snapshots,
	}
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
	e, shared, err := c.flight.Do(ctx, key, func() (*Entry, error) {
		// The lookup runs inside the flight, so a result added between a
		// miss and the flight claim is still found.
		if e, ok := c.Get(key); ok {
			sv.Cached = true
			return e, nil
		}
		e := &Entry{Key: key, Sig: f.Sig}
		if f.Delta != nil {
			if near := c.nearest(f.Sig, g.ConeHashes()); near != nil {
				e.Result, e.Snap, sv.Dirty, sv.ECO = f.Delta(near.Snap)
			}
		}
		if sv.ECO {
			c.mu.Lock()
			c.ecoHits++
			c.mu.Unlock()
		} else {
			var err error
			if e.Result, e.Snap, err = f.Map(f.Delta != nil); err != nil {
				return nil, err
			}
		}
		if f.Verify != nil {
			e.Verified = f.Verify(e.Result)
		}
		c.Add(e)
		return e, nil
	})
	if err != nil {
		return Served{}, err
	}
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	sv.Result, sv.Verified, sv.Cached = e.Result, e.Verified, sv.Cached || shared
	return sv, nil
}
