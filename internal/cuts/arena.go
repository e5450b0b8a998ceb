// Arena-pooled cut storage: every enumeration run carves its cut lists and
// leaf slices out of an Arena (a fresh one when the caller lends none), and
// a Pool keyed by graph identity hands the same Arena back to repeated
// mappings of the same design — the dominant slap-serve pattern and every
// dataset shuffle sweep — so the steady state allocates nothing.
package cuts

import (
	"math/bits"
	"sync"

	"slap/internal/aig"
	"slap/internal/tt"
)

// GraphKey identifies an AIG structurally: node count, PO count and a hash
// over every node's type and fanin literals plus the PO literals. Two graphs
// with equal keys have identical node numbering and connectivity, so an
// Arena sized for one fits the other exactly.
type GraphKey struct {
	Nodes int
	POs   int
	Hash  uint64
}

// KeyOf fingerprints g for arena pooling. It is O(nodes) and allocation-free.
func KeyOf(g *aig.AIG) GraphKey {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		switch {
		case g.IsAnd(n):
			f0, f1 := g.Fanins(n)
			h = (h ^ 3) * prime
			h = (h ^ uint64(f0)) * prime
			h = (h ^ uint64(f1)) * prime
		case g.IsPI(n):
			h = (h ^ 5) * prime
		default:
			h = (h ^ 7) * prime
		}
	}
	for _, po := range g.POs() {
		h = (h ^ uint64(po.Lit)) * prime
	}
	return GraphKey{Nodes: g.NumNodes(), POs: g.NumPOs(), Hash: h}
}

// maxSizeClass bounds the power-of-two free lists; class c holds blocks of
// capacity 1<<c.
const maxSizeClass = 32

// sizeClass returns the smallest c with 1<<c >= n (n >= 1).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Arena owns the storage of streaming enumeration runs over one graph
// shape: power-of-two cut blocks, fixed-size leaf chunks, per-worker
// scratches and the level bookkeeping of the streaming driver. An Arena is
// bound to one run at a time; Pool.Get/Put recycle it across runs with zero
// steady-state allocation.
type Arena struct {
	key GraphKey
	g   *aig.AIG

	// mu guards the free lists: workers of one run check blocks and chunks
	// in and out concurrently (a handful of operations per node, against a
	// merge costing tens of microseconds).
	mu       sync.Mutex
	freeCuts [maxSizeClass + 1][][]Cut
	freeLeaf [][]uint32

	// Per-run storage reused across runs (same key ⇒ same sizes).
	res       Result
	sets      [][]Cut
	blocks    [][]Cut // blocks[n] = the arena block backing sets[n], for retirement
	scratches []*scratch

	// Trivial-cut slab for the PIs, built once per arena.
	piCuts   []Cut
	piLeaves []uint32
	piDone   bool

	// Streaming-driver level bookkeeping (see stream.go).
	levelNodes  []uint32
	levelOff    []int32
	levelCuts   []int32
	retireAfter []int32
	retireLv    []int32
	retireOff   []int32
	cursor      []int32

	stamp int64 // pool recency stamp for eviction
}

// NewArena builds a standalone arena for g (no pool). Most callers should
// use a Pool instead.
func NewArena(g *aig.AIG) *Arena {
	a := &Arena{key: KeyOf(g)}
	a.attach(g)
	return a
}

// attach (re)binds the arena storage to a concrete graph instance of its
// shape. Allocation-free when the arena has served a graph of this shape
// before.
func (a *Arena) attach(g *aig.AIG) {
	a.g = g
	n := g.NumNodes()
	if cap(a.sets) < n {
		a.sets = make([][]Cut, n)
		a.blocks = make([][]Cut, n)
	}
	a.sets = a.sets[:n]
	a.blocks = a.blocks[:n]
	for _, s := range a.scratches {
		s.g = g
	}
}

// bindPIs installs the pooled trivial-cut slab for every PI of the bound
// graph into res.Sets.
func (a *Arena) bindPIs(res *Result) {
	g := a.g
	if !a.piDone {
		num := g.NumPIs()
		a.piLeaves = make([]uint32, 0, num)
		a.piCuts = make([]Cut, 0, num)
		for _, pi := range g.PIs() {
			i := len(a.piLeaves)
			a.piLeaves = append(a.piLeaves, pi)
			lv := a.piLeaves[i : i+1 : i+1]
			a.piCuts = append(a.piCuts, Cut{Leaves: lv, Sig: leafSig(lv), TT: tt.Var(0)})
		}
		a.piDone = true
	}
	for i, pi := range g.PIs() {
		res.Sets[pi] = a.piCuts[i : i+1 : i+1]
	}
}

// scratchFor returns worker i's scratch bound to the current graph, growing
// the set on first use.
func (a *Arena) scratchFor(i int, maxLevel int32) *scratch {
	for len(a.scratches) <= i {
		a.scratches = append(a.scratches, newScratch(a.g))
	}
	s := a.scratches[i]
	s.g = a.g
	s.a = a
	s.curLevel = -1
	nLv := int(maxLevel) + 1
	if cap(s.chunksByLevel) < nLv {
		grown := make([][][]uint32, nLv)
		copy(grown, s.chunksByLevel)
		s.chunksByLevel = grown
	}
	s.chunksByLevel = s.chunksByLevel[:nLv]
	return s
}

// getCutBlock checks a []Cut block of capacity >= n out of the free lists.
func (a *Arena) getCutBlock(n int) []Cut {
	if n < 1 {
		n = 1
	}
	c := sizeClass(n)
	a.mu.Lock()
	if l := a.freeCuts[c]; len(l) > 0 {
		b := l[len(l)-1]
		a.freeCuts[c] = l[:len(l)-1]
		a.mu.Unlock()
		return b
	}
	a.mu.Unlock()
	return make([]Cut, 0, 1<<c)
}

// putCutBlock returns a block to its size-class free list. Blocks whose
// capacity is not an exact power of two (a policy substituted its own
// array, or a mid-slice) are left to the garbage collector.
func (a *Arena) putCutBlock(b []Cut) {
	n := cap(b)
	if n == 0 {
		return
	}
	c := sizeClass(n)
	if 1<<c != n {
		return
	}
	b = b[:0]
	a.mu.Lock()
	a.freeCuts[c] = append(a.freeCuts[c], b)
	a.mu.Unlock()
}

// getLeafChunk checks a fixed-size leaf chunk out of the free list.
func (a *Arena) getLeafChunk() []uint32 {
	a.mu.Lock()
	if n := len(a.freeLeaf); n > 0 {
		ch := a.freeLeaf[n-1]
		a.freeLeaf = a.freeLeaf[:n-1]
		a.mu.Unlock()
		return ch
	}
	a.mu.Unlock()
	return make([]uint32, 0, arenaChunk)
}

func (a *Arena) putLeafChunk(ch []uint32) {
	if cap(ch) == 0 {
		return
	}
	ch = ch[:0]
	a.mu.Lock()
	a.freeLeaf = append(a.freeLeaf, ch)
	a.mu.Unlock()
}

// reclaim returns every still-live block and chunk of the last run to the
// free lists and clears the per-run views. The Result of that run must not
// be used afterwards: its cut storage is recycled.
func (a *Arena) reclaim() {
	for n := range a.blocks {
		if b := a.blocks[n]; b != nil {
			a.putCutBlock(b)
			a.blocks[n] = nil
		}
		a.sets[n] = nil
	}
	for _, s := range a.scratches {
		s.reclaimChunks()
	}
}

// PoolStats reports arena reuse counters.
type PoolStats struct {
	// Hits counts Pool.Get calls served by a cached arena.
	Hits int64
	// Misses counts Pool.Get calls that built a fresh arena.
	Misses int64
	// Cached is the number of arenas currently parked in the pool.
	Cached int
	// Graphs is the number of distinct graph identities with at least one
	// parked arena — the pool's warmth: how many designs this process can
	// re-map with zero steady-state cut allocations right now. Fleet
	// coordinators read it off /healthz to judge routing quality.
	Graphs int
	// Evictions counts arenas dropped because the pool exceeded its cap.
	Evictions int64
}

// DefaultPoolArenas is the default Pool capacity. Two arenas keep the reuse
// a server sees, the next request on the same graph, while bounding the
// cut storage retained between requests.
const DefaultPoolArenas = 2

// Pool caches Arenas keyed by graph identity so repeated mappings of the
// same design reuse cut storage across runs. Safe for concurrent use; each
// checked-out Arena serves exactly one run at a time.
type Pool struct {
	mu        sync.Mutex
	arenas    map[GraphKey][]*Arena
	max       int
	gen       int64
	hits      int64
	misses    int64
	cached    int
	evictions int64
}

// NewPool builds a pool holding at most max arenas (0 or negative means
// DefaultPoolArenas). The oldest arena is evicted when the cap is exceeded.
func NewPool(max int) *Pool {
	if max <= 0 {
		max = DefaultPoolArenas
	}
	return &Pool{arenas: make(map[GraphKey][]*Arena), max: max}
}

// Get checks out an arena for g, reusing a cached one when the pool has
// seen this graph shape before. The caller must return it with Put.
func (p *Pool) Get(g *aig.AIG) *Arena {
	key := KeyOf(g)
	p.mu.Lock()
	if l := p.arenas[key]; len(l) > 0 {
		a := l[len(l)-1]
		l[len(l)-1] = nil
		p.arenas[key] = l[:len(l)-1]
		p.cached--
		p.hits++
		p.mu.Unlock()
		a.attach(g)
		return a
	}
	p.misses++
	p.mu.Unlock()
	a := &Arena{key: key}
	a.attach(g)
	return a
}

// Put reclaims the arena's run storage and parks it for reuse. Any Result
// produced from the arena is invalidated.
func (p *Pool) Put(a *Arena) {
	if a == nil {
		return
	}
	a.reclaim()
	p.mu.Lock()
	p.gen++
	a.stamp = p.gen
	p.arenas[a.key] = append(p.arenas[a.key], a)
	p.cached++
	for p.cached > p.max {
		p.evictOldestLocked()
	}
	p.mu.Unlock()
}

func (p *Pool) evictOldestLocked() {
	var oldKey GraphKey
	oldIdx := -1
	var oldStamp int64
	for k, l := range p.arenas {
		for i, a := range l {
			if oldIdx == -1 || a.stamp < oldStamp {
				oldKey, oldIdx, oldStamp = k, i, a.stamp
			}
		}
	}
	if oldIdx < 0 {
		return
	}
	l := p.arenas[oldKey]
	l = append(l[:oldIdx], l[oldIdx+1:]...)
	if len(l) == 0 {
		delete(p.arenas, oldKey)
	} else {
		p.arenas[oldKey] = l
	}
	p.cached--
	p.evictions++
}

// Stats returns reuse counters for metrics.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Emptied slices linger in the map so a checked-out arena's Put can
	// append without reallocating; count only keys that are warm right now.
	graphs := 0
	for _, l := range p.arenas {
		if len(l) > 0 {
			graphs++
		}
	}
	return PoolStats{Hits: p.hits, Misses: p.misses, Cached: p.cached, Graphs: graphs, Evictions: p.evictions}
}
