// Arena-pooled cut storage: every enumeration run carves its cut lists and
// leaf slices out of an Arena (a fresh one when the caller lends none), and
// a Pool lends the most recently returned Arena to whichever graph maps
// next, so a warm process carves its cuts from recycled blocks.
package cuts

import (
	"math/bits"
	"sync"

	"slap/internal/aig"
	"slap/internal/tt"
)

// maxSizeClass bounds the power-of-two free lists; class c holds blocks of
// capacity 1<<c.
const maxSizeClass = 32

// sizeClass returns the smallest c with 1<<c >= n (n >= 1).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Arena owns the storage of streaming enumeration runs: power-of-two cut
// blocks, fixed-size leaf chunks, per-worker scratches and the level
// bookkeeping of the streaming driver. Only the per-node tables depend on
// the graph, and each run binds them to its own, growing them when it has
// more nodes, levels or PIs than any graph before it. The zero Arena is
// ready for use. An Arena is bound to one run at a time; Pool.Get/Put
// recycle it across runs.
type Arena struct {
	g *aig.AIG

	// mu guards the free lists: workers of one run check blocks and chunks
	// in and out concurrently (a handful of operations per node, against a
	// merge costing tens of microseconds).
	mu       sync.Mutex
	freeCuts [maxSizeClass + 1][][]Cut
	freeLeaf [][]uint32

	// Per-run storage, regrown to the largest graph served.
	res       Result
	sets      [][]Cut
	blocks    [][]Cut // blocks[n] = the arena block backing sets[n], for retirement
	scratches []*scratch

	// Trivial-cut slab for the PIs, rebuilt by every run.
	piCuts   []Cut
	piLeaves []uint32

	// Streaming-driver level bookkeeping (see stream.go).
	levelNodes  []uint32
	levelOff    []int32
	levelCuts   []int32
	retireAfter []int32
	retireLv    []int32
	retireOff   []int32
	cursor      []int32
}

// attach binds the arena's per-node tables to g. Allocation-free when the
// arena has served a graph with at least as many nodes.
func (a *Arena) attach(g *aig.AIG) {
	a.g = g
	grow(&a.sets, g.NumNodes())
	grow(&a.blocks, g.NumNodes())
}

// bindPIs rebuilds the trivial-cut slab for the PIs of the bound graph and
// installs it into res.Sets.
func (a *Arena) bindPIs(res *Result) {
	pis := a.g.PIs()
	leaves := grow(&a.piLeaves, len(pis))
	cs := grow(&a.piCuts, len(pis))
	for i, pi := range pis {
		leaves[i] = pi
		lv := leaves[i : i+1 : i+1]
		cs[i] = Cut{Leaves: lv, Sig: leafSig(lv), TT: tt.Var(0)}
		res.Sets[pi] = cs[i : i+1 : i+1]
	}
}

// scratchFor returns worker i's scratch bound to the current graph, growing
// the set on first use.
func (a *Arena) scratchFor(i int, maxLevel int32) *scratch {
	for len(a.scratches) <= i {
		a.scratches = append(a.scratches, new(scratch))
	}
	s := a.scratches[i]
	s.bind(a.g)
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

// grow resizes *p to n elements, reallocating only when its capacity is
// short; retained elements keep their values.
func grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
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
	// Hits counts Pool.Get calls served by a parked arena.
	Hits int64
	// Misses counts Pool.Get calls that built a fresh arena.
	Misses int64
	// Cached is the number of arenas currently parked in the pool.
	Cached int
	// Evictions counts arenas Put dropped because the pool was full.
	Evictions int64
}

// DefaultPoolArenas is the default Pool capacity: one arena for each of
// two maps in flight, while bounding the cut storage retained between
// requests.
const DefaultPoolArenas = 2

// Pool parks returned Arenas on a bounded stack and lends the most
// recently returned one to whatever graph maps next. Safe for concurrent
// use; each checked-out Arena serves exactly one run at a time.
type Pool struct {
	mu        sync.Mutex
	arenas    []*Arena
	max       int
	hits      int64
	misses    int64
	evictions int64
}

// NewPool builds a pool parking at most max arenas (0 or negative means
// DefaultPoolArenas).
func NewPool(max int) *Pool {
	if max <= 0 {
		max = DefaultPoolArenas
	}
	return &Pool{max: max}
}

// Get checks out the most recently returned arena, or a fresh one when
// none is parked. The caller must return it with Put.
func (p *Pool) Get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.arenas)
	if n == 0 {
		p.misses++
		return new(Arena)
	}
	a := p.arenas[n-1]
	p.arenas[n-1] = nil
	p.arenas = p.arenas[:n-1]
	p.hits++
	return a
}

// Put reclaims the arena's run storage and parks it for reuse, or drops
// it when the pool is full. Any Result produced from the arena is
// invalidated.
func (p *Pool) Put(a *Arena) {
	if a == nil {
		return
	}
	a.reclaim()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.arenas) >= p.max {
		p.evictions++
		return
	}
	p.arenas = append(p.arenas, a)
}

// Stats returns reuse counters for metrics.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Cached: len(p.arenas), Evictions: p.evictions}
}
