// Package cuts implements k-feasible cut enumeration over AIGs with the
// priority-cuts scheme: each node keeps a bounded, policy-ordered list of
// cuts, and the merge step (Eq. 1 of the paper) works on the already-pruned
// fanin lists. The cut sorting/filtering policy is therefore the lever that
// shapes the whole mapping search space — exactly the lever SLAP replaces
// with a learned model.
//
// Enumeration runs as a topological level wavefront: a node's cut set
// depends only on its fanins, which sit at strictly lower levels, so all
// nodes of one level can be merged concurrently once the previous levels are
// done. Each worker owns private scratch state (epoch-stamped visited/value
// arrays, the dedupe hash table, a leaf arena), so the hot path takes no
// locks and performs no steady-state allocations. See DESIGN.md
// §"Concurrency architecture".
package cuts

import (
	"fmt"
	"math/bits"
	"slices"

	"slap/internal/aig"
	"slap/internal/par"
	"slap/internal/tt"
)

// K is the cut leaf limit used throughout the paper (5-input cuts, matching
// the standard-cell matching width).
const K = 5

// Cut is a k-feasible cut: a set of leaves, the function of the root in
// terms of those leaves, and structural attributes.
type Cut struct {
	// Leaves are the cut leaf node ids in ascending order.
	Leaves []uint32
	// Sig is a 64-bit Bloom signature of the leaf set, used for fast
	// dominance rejection.
	Sig uint64
	// TT is the root function over the leaves (variable i = Leaves[i]).
	TT tt.TT
	// Volume is the number of AND nodes covered by the cut (root included,
	// leaves excluded).
	Volume int32
	// Choice marks a cut imported from a functional equivalence-class
	// member (see ChoiceSource): it computes the root's function but its
	// leaves cut the member's cone, not the root's. Choice cuts feed
	// Boolean matching like any other cut but are excluded from upward
	// merging, whose symbolic cone evaluation requires structural cuts.
	Choice bool
}

// IsTrivial reports whether the cut is the trivial cut {n} of its root.
func (c *Cut) IsTrivial(root uint32) bool {
	return len(c.Leaves) == 1 && c.Leaves[0] == root
}

// LeafSig recomputes a cut's Bloom signature from its leaves — needed when
// leaves are rewritten in place (e.g. translated through an ECO alignment).
func LeafSig(leaves []uint32) uint64 { return leafSig(leaves) }

func leafSig(leaves []uint32) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (l % 64)
	}
	return s
}

// hashLeaves mixes a sorted leaf list into a 64-bit dedupe key. Unlike the
// Bloom Sig it is a proper hash: distinct leaf sets collide only by chance,
// so the merge dedupe needs a full leaf comparison only on hash collision.
func hashLeaves(leaves []uint32) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ uint64(len(leaves))
	for _, l := range leaves {
		h ^= uint64(l)
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

func leavesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetOf reports whether a's leaves are a subset of b's.
func subsetOf(a, b *Cut) bool {
	if a.Sig&^b.Sig != 0 || len(a.Leaves) > len(b.Leaves) {
		return false
	}
	i, j := 0, 0
	for i < len(a.Leaves) && j < len(b.Leaves) {
		switch {
		case a.Leaves[i] == b.Leaves[j]:
			i++
			j++
		case a.Leaves[i] > b.Leaves[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a.Leaves)
}

// mergeLeavesInto unions two sorted leaf lists into buf, failing when the
// union exceeds K. It returns the union length.
func mergeLeavesInto(buf *[K]uint32, a, b []uint32) (int, bool) {
	n := 0
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v uint32
		switch {
		case i == len(a):
			v = b[j]
			j++
		case j == len(b):
			v = a[i]
			i++
		case a[i] == b[j]:
			v = a[i]
			i++
			j++
		case a[i] < b[j]:
			v = a[i]
			i++
		default:
			v = b[j]
			j++
		}
		if n == K {
			return 0, false
		}
		buf[n] = v
		n++
	}
	return n, true
}

// Policy orders and prunes the candidate cut list of one node. The returned
// slice is what downstream merging and Boolean matching will see.
type Policy interface {
	// Process may reorder, filter and truncate cs. It must keep the trivial
	// cut reachable for mapping (the enumerator re-appends it if dropped).
	Process(g *aig.AIG, n uint32, cs []Cut) []Cut
	// Name identifies the policy in reports.
	Name() string
}

// ParallelSafe is an optional Policy extension: a policy whose Process is a
// pure function of (g, n, cs) — no mutable state shared across calls —
// returns true to opt into concurrent Process calls during wavefront
// enumeration. Stateful policies (e.g. ShufflePolicy, whose RNG sequence
// depends on node visit order) simply do not implement it and the enumerator
// falls back to the sequential path automatically.
type ParallelSafe interface{ ParallelSafe() bool }

// LevelFilter is an optional Policy extension for a keep decision that
// reads more than a node's own cone (SLAP's cut embeddings read fanouts
// and levels) and so runs once per completed wavefront level, between
// enumeration and the consumer. Its Process returns its input: the
// enumerator keeps the unfiltered lists, and fanouts merge from them.
type LevelFilter interface {
	Policy
	// Begin starts a run over g. filter writes kept[n], the kept list of
	// sets[n], for every node of one level, and extras[n], the node's
	// recovery pool, when extras is non-nil; done ends the run. The kept
	// and extras lists it writes are valid until filter's next call (SLAP
	// carves them from a slab it reuses level by level), so a consumer
	// that keeps one past the level copies it.
	Begin(g *aig.AIG) (filter func(nodes []uint32, sets, kept, extras [][]Cut) error, done func())
	// Sig identifies the keep decision: filters with equal Sig keep equal
	// lists.
	Sig() string
}

// PolicyParallelSafe reports whether p may be invoked concurrently. The nil
// (exhaustive) policy is safe by definition.
func PolicyParallelSafe(p Policy) bool {
	if p == nil {
		return true
	}
	ps, ok := p.(ParallelSafe)
	return ok && ps.ParallelSafe()
}

// Result holds the outcome of cut enumeration.
type Result struct {
	// Sets[n] is the cut list of node n (nil for PIs/constant except for
	// their trivial cut).
	Sets [][]Cut
	// TotalCuts is the number of cuts exposed to the mapper, the paper's
	// "Cuts Used" memory-footprint metric.
	TotalCuts int
	// PeakCuts is the maximum number of cuts simultaneously retained during
	// enumeration. Run holds every cut until the end, so it equals
	// TotalCuts; RunStream retires levels as their consumers complete and
	// reports the widest live window.
	PeakCuts int
}

// Enumerator computes k-feasible cuts for every node of an AIG under a
// given priority policy.
type Enumerator struct {
	G *aig.AIG
	// Policy orders/prunes each node's cut list; nil means keep everything
	// (exhaustive enumeration subject only to MergeCap).
	Policy Policy
	// Workers bounds level-wavefront parallelism: 0 means GOMAXPROCS
	// workers (see par.Workers), 1 forces the sequential path, N > 1 uses
	// N workers. The parallel and sequential paths produce identical
	// Results; parallel runs additionally require a parallel-safe policy
	// (see ParallelSafe) and degrade to sequential otherwise.
	Workers int
	// Arena, when non-nil, lends RunStream its cut storage, so a run
	// carves its cuts from the blocks earlier runs returned, whatever
	// graphs they mapped (see Pool); nil makes a fresh arena for each run.
	// Run ignores it: it runs on a fresh arena and copies its lists out.
	Arena *Arena
	// Reuse, when non-nil, is consulted before each AND node is merged: a
	// non-nil list is installed verbatim and the node's merge/policy
	// pipeline is skipped, while nil falls through to normal processing.
	// A supplied list must be a complete post-policy cut list (trivial cut
	// included) over node ids of G that stays valid for the whole run; the
	// ECO flow passes cached baseline lists translated through a monotone
	// node alignment, which makes them byte-equal to what fresh enumeration
	// would produce. The wavefront calls Reuse from several goroutines, so
	// it must be a read-only lookup.
	Reuse func(n uint32) []Cut
	// Choices, when non-nil, exposes functional equivalence classes: each
	// node's merged list is enriched with its class members' cuts before the
	// policy runs, so mapping matches across structural variants. See
	// choice.go for the eligibility rule sources must uphold.
	Choices ChoiceSource

	// s is MakeCut's scratch; enumeration runs take theirs from the arena.
	s *scratch
}

// MergeCap bounds the per-node list length before the policy runs, to
// keep exhaustive enumeration tractable on large designs.
const MergeCap = 2000

// minParallelAnds gates the wavefront path: below this graph size the
// per-level barriers cost more than the merges they spread.
const minParallelAnds = 128

// effectiveWorkers resolves the Workers knob against the policy and graph.
func (e *Enumerator) effectiveWorkers() int {
	w := par.Workers(e.Workers)
	if w <= 1 || !PolicyParallelSafe(e.Policy) || e.G.NumAnds() < minParallelAnds {
		return 1
	}
	return w
}

// Run enumerates cuts for all nodes and keeps every list: a collector sink
// over a fresh arena's stream that copies each level's lists, leaves
// included, out of the arena before retirement recycles them. Every list
// stays valid after Run returns, and PeakCuts equals TotalCuts. Consumers
// that need the whole cut universe at once (classification, tests) use
// it.
func (e *Enumerator) Run() *Result {
	g := e.G
	out := &Result{Sets: make([][]Cut, g.NumNodes())}
	// A fresh arena fits g and the sink never fails, so the run cannot.
	res, _ := e.runStream(nil, func(_ int32, nodes []uint32, sets [][]Cut) error {
		copyLists(out.Sets, nodes, sets)
		return nil
	})
	copyLists(out.Sets, g.PIs(), res.Sets)
	out.TotalCuts = res.TotalCuts
	out.PeakCuts = res.TotalCuts
	return out
}

// copyLists copies the lists of nodes from sets into dst, carving every
// cut from one slab and every leaf from another.
func copyLists(dst [][]Cut, nodes []uint32, sets [][]Cut) {
	nc, nl := 0, 0
	for _, n := range nodes {
		nc += len(sets[n])
		for i := range sets[n] {
			nl += len(sets[n][i].Leaves)
		}
	}
	cs, ls := make([]Cut, nc), make([]uint32, nl)
	for _, n := range nodes {
		src := sets[n]
		d := cs[:len(src):len(src)]
		cs = cs[len(src):]
		for i := range src {
			d[i] = src[i]
			k := copy(ls, src[i].Leaves)
			d[i].Leaves, ls = ls[:k:k], ls[k:]
		}
		dst[n] = d
	}
}

// processNode computes one AND node's final cut list.
func (e *Enumerator) processNode(s *scratch, res *Result, n uint32) {
	if e.Reuse != nil {
		if cs := e.Reuse(n); cs != nil {
			res.Sets[n] = cs
			return
		}
	}
	f0, f1 := e.G.Fanins(n)
	cs := s.mergeNode(n, res.Sets[f0.Node()], res.Sets[f1.Node()])
	if e.Choices != nil {
		cs = s.enrichChoices(e, res, n, cs)
	}
	if e.Policy != nil {
		cs = e.Policy.Process(e.G, n, cs)
	}
	cs = s.ensureTrivialCut(n, cs)
	// Record the block backing this node's list so level retirement can
	// recycle it. Policies keep the merge array (sort/filter/truncate in
	// place), so cs still views the checked-out block; if a policy ever
	// substituted its own array, putCutBlock's power-of-two check drops it
	// to the garbage collector instead.
	s.a.blocks[n] = cs
	res.Sets[n] = cs
}

// ensureTrivialCut appends the trivial cut {n} when cs lacks it: its leaf
// slice is interned and the cut block is grown through the arena.
func (s *scratch) ensureTrivialCut(n uint32, cs []Cut) []Cut {
	for i := range cs {
		if cs[i].IsTrivial(n) {
			return cs
		}
	}
	if len(cs) == cap(cs) {
		cs = s.growCutList(cs)
	}
	one := [1]uint32{n}
	return append(cs, Cut{
		Leaves: s.internLeaves(one[:]),
		Sig:    leafSig(one[:]),
		TT:     tt.Var(0),
		Volume: 0,
	})
}

// growCutList moves cs into a larger arena block, recycling the old one.
// Only the merge pipeline of the current node references cs, so the old
// block is safe to hand back immediately.
func (s *scratch) growCutList(cs []Cut) []Cut {
	want := 2 * cap(cs)
	if want == 0 {
		want = 1
	}
	nb := s.a.getCutBlock(want)
	nb = nb[:len(cs)]
	copy(nb, cs)
	s.a.putCutBlock(cs)
	return nb
}

// beginLevel scopes subsequently filled leaf chunks to level l (level-order
// streaming): the partial chunk in flight still belongs to the previous
// scope and is flushed there first.
func (s *scratch) beginLevel(l int32) {
	s.flushChunk()
	s.curLevel = l
}

// flushChunk registers the current partial leaf chunk under the active
// scope so it can be recycled, and detaches it.
func (s *scratch) flushChunk() {
	if cap(s.arena) == 0 {
		s.arena = nil
		return
	}
	if s.curLevel >= 0 {
		s.chunksByLevel[s.curLevel] = append(s.chunksByLevel[s.curLevel], s.arena)
	} else {
		s.runChunks = append(s.runChunks, s.arena)
	}
	s.arena = nil
}

// releaseLevelChunks recycles the leaf chunks scoped to a retired level.
func (s *scratch) releaseLevelChunks(l int32) {
	if int(l) >= len(s.chunksByLevel) {
		return
	}
	if s.curLevel == l {
		s.flushChunk()
	}
	for _, ch := range s.chunksByLevel[l] {
		s.a.putLeafChunk(ch)
	}
	s.chunksByLevel[l] = s.chunksByLevel[l][:0]
}

// reclaimChunks returns every outstanding leaf chunk to the arena (end of a
// run, or Arena reclaim after an aborted one).
func (s *scratch) reclaimChunks() {
	s.flushChunk()
	for i, ch := range s.runChunks {
		s.a.putLeafChunk(ch)
		s.runChunks[i] = nil
	}
	s.runChunks = s.runChunks[:0]
	for l := range s.chunksByLevel {
		for i, ch := range s.chunksByLevel[l] {
			s.a.putLeafChunk(ch)
			s.chunksByLevel[l][i] = nil
		}
		s.chunksByLevel[l] = s.chunksByLevel[l][:0]
	}
	s.curLevel = -1
}

// scratch is the per-worker mutable state of enumeration. Everything is
// epoch-stamped or arena-chunked so the merge hot path allocates nothing in
// steady state and no two workers ever share a scratch.
type scratch struct {
	g *aig.AIG

	// Cone-evaluation state: visited is epoch-stamped so clearing between
	// cuts is one counter increment.
	visited []uint32
	val     []tt.TT
	epoch   uint32
	vol     int32

	// Dedupe table: open addressing, power-of-two sized, epoch-stamped so
	// clearing between nodes is one counter increment. tabIdx points into
	// the node's accumulating cut list.
	tabEpoch []uint32
	tabHash  []uint64
	tabIdx   []int32
	tabCur   uint32
	tabCount int

	// arena is the leaf chunk accepted cuts' leaf slices are carved from.
	arena []uint32

	// a supplies the cut blocks and leaf chunks of an enumeration run.
	// curLevel scopes filled leaf chunks: >= 0 registers them per level in
	// chunksByLevel so retirement can recycle them; -1 (index-order driver)
	// accumulates them in runChunks until Arena reclaim.
	a             *Arena
	curLevel      int32
	chunksByLevel [][][]uint32
	runChunks     [][]uint32
}

const arenaChunk = 4096

// bind points s at g, growing the cone-evaluation arrays when g has more
// nodes than any graph s served before. Stale visited stamps sit below the
// next epoch, so they read as unvisited.
func (s *scratch) bind(g *aig.AIG) {
	s.g = g
	if n := g.NumNodes(); len(s.visited) < n {
		s.visited = make([]uint32, n)
		s.val = make([]tt.TT, n)
	}
}

// mergeNode computes the cut set of AND node n from its fanin cut sets. The
// hot loop is allocation-free in steady state: leaf unions go into a stack
// buffer, duplicates are rejected by the epoch-stamped hash table keyed on a
// 64-bit leaf hash (full leaf comparison only on collision), accepted leaf
// slices are carved from the arena, and cone evaluation reuses the
// epoch-stamped visited/value arrays.
func (s *scratch) mergeNode(n uint32, cs0, cs1 []Cut) []Cut {
	// Pre-size from the fanin list lengths: the union count is close to the
	// sum for typical priority-cut lists.
	est := len(cs0) + len(cs1)
	if est > MergeCap {
		est = MergeCap
	}
	out := s.a.getCutBlock(est + 1)
	s.resetTable(est)
	var buf [K]uint32
	for i := range cs0 {
		if cs0[i].Choice {
			continue // choice cuts are not structural cuts of the fanin
		}
		for j := range cs1 {
			u, v := &cs0[i], &cs1[j]
			if v.Choice {
				continue
			}
			if bits.OnesCount64(u.Sig|v.Sig) > K {
				continue // cannot be k-feasible
			}
			nl, ok := mergeLeavesInto(&buf, u.Leaves, v.Leaves)
			if !ok {
				continue
			}
			leaves := buf[:nl]
			if s.seen(leaves, out) {
				continue
			}
			// The truth table is computed by symbolic cone evaluation rather
			// than by composing the fanin cut functions: when a leaf of one
			// fanin cut is the other fanin node itself, composition would
			// wrongly substitute that leaf's own function for the free leaf
			// variable. Cone evaluation also yields the volume in the same
			// traversal.
			f, vol := s.coneTT(n, leaves)
			if len(out) == cap(out) {
				out = s.growCutList(out)
			}
			out = append(out, Cut{
				Leaves: s.internLeaves(leaves),
				Sig:    leafSig(leaves),
				TT:     f,
				Volume: vol,
			})
			if len(out) >= MergeCap {
				return out
			}
		}
	}
	return out
}

// resetTable prepares the dedupe table for a node expecting about `expect`
// distinct cuts.
func (s *scratch) resetTable(expect int) {
	need := 4 * expect
	if need < 64 {
		need = 64
	}
	size := len(s.tabHash)
	if size < need {
		size = 64
		for size < need {
			size <<= 1
		}
		s.tabHash = make([]uint64, size)
		s.tabIdx = make([]int32, size)
		s.tabEpoch = make([]uint32, size)
		s.tabCur = 0
	}
	s.tabCur++
	if s.tabCur == 0 { // epoch counter wrapped: stale stamps become valid
		for i := range s.tabEpoch {
			s.tabEpoch[i] = 0
		}
		s.tabCur = 1
	}
	s.tabCount = 0
}

// seen reports whether leaves already occur in out; otherwise it records
// them under the next out index and returns false.
func (s *scratch) seen(leaves []uint32, out []Cut) bool {
	if 2*(s.tabCount+1) > len(s.tabHash) {
		s.growTable(out)
	}
	h := hashLeaves(leaves)
	mask := uint64(len(s.tabHash) - 1)
	slot := h & mask
	for {
		if s.tabEpoch[slot] != s.tabCur {
			s.tabEpoch[slot] = s.tabCur
			s.tabHash[slot] = h
			s.tabIdx[slot] = int32(len(out))
			s.tabCount++
			return false
		}
		if s.tabHash[slot] == h && leavesEqual(out[s.tabIdx[slot]].Leaves, leaves) {
			return true
		}
		slot = (slot + 1) & mask
	}
}

// growTable doubles the dedupe table and reinserts the node's accepted cuts
// (the table entries correspond exactly to out's indices).
func (s *scratch) growTable(out []Cut) {
	size := 2 * len(s.tabHash)
	s.tabHash = make([]uint64, size)
	s.tabIdx = make([]int32, size)
	s.tabEpoch = make([]uint32, size)
	s.tabCur = 1
	s.tabCount = len(out)
	mask := uint64(size - 1)
	for i := range out {
		h := hashLeaves(out[i].Leaves)
		slot := h & mask
		for s.tabEpoch[slot] == s.tabCur {
			slot = (slot + 1) & mask
		}
		s.tabEpoch[slot] = s.tabCur
		s.tabHash[slot] = h
		s.tabIdx[slot] = int32(i)
	}
}

// internLeaves copies an accepted leaf union into the current leaf chunk,
// so the merge loop checks out one chunk per ~arenaChunk leaves instead of
// allocating one slice per cut.
func (s *scratch) internLeaves(src []uint32) []uint32 {
	if cap(s.arena)-len(s.arena) < len(src) {
		s.flushChunk()
		s.arena = s.a.getLeafChunk()
	}
	i := len(s.arena)
	s.arena = append(s.arena, src...)
	return s.arena[i:len(s.arena):len(s.arena)]
}

// MakeCut constructs a cut of root over the given sorted leaves, computing
// its truth table and volume by cone evaluation. The leaf set must be a
// valid cut of root (every PI-to-root path passes through a leaf).
func (e *Enumerator) MakeCut(root uint32, leaves []uint32) Cut {
	if e.s == nil {
		e.s = new(scratch)
		e.s.bind(e.G)
	}
	f, vol := e.s.coneTT(root, leaves)
	return Cut{
		Leaves: append([]uint32(nil), leaves...),
		Sig:    leafSig(leaves),
		TT:     f,
		Volume: vol,
	}
}

// coneTT symbolically evaluates the function of n over the cut leaves
// (variable i = leaves[i]) and counts the AND nodes covered. The leaves are
// stamped first, backwards so that a repeated leaf keeps its first variable.
func (s *scratch) coneTT(n uint32, leaves []uint32) (tt.TT, int32) {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale visited stamps become valid
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	for i := len(leaves) - 1; i >= 0; i-- {
		s.visited[leaves[i]] = s.epoch
		s.val[leaves[i]] = tt.Var(i)
	}
	s.vol = 0
	return s.coneEval(n), s.vol
}

func (s *scratch) coneEval(m uint32) tt.TT {
	if s.visited[m] == s.epoch {
		return s.val[m]
	}
	if !s.g.IsAnd(m) {
		// Only reachable if the leaf set is not a cut; the enumerator
		// never constructs such sets, so this is an internal error.
		panic("cuts: cone evaluation escaped the cut leaves")
	}
	s.vol++
	f0, f1 := s.g.Fanins(m)
	v0 := s.coneEval(f0.Node())
	if f0.IsCompl() {
		v0 = v0.Not()
	}
	v1 := s.coneEval(f1.Node())
	if f1.IsCompl() {
		v1 = v1.Not()
	}
	v := v0.And(v1)
	s.visited[m] = s.epoch
	s.val[m] = v
	return v
}

// FilterDominatedFor removes the cuts of root whose leaf set is a superset
// of another cut's leaf set (the dominated cuts), preserving order. The
// trivial cut {root} is skipped as a dominator: no enumerated cut of root
// contains root as a leaf, so it can never dominate anything.
//
// Every dominance relation is decided against the pristine input before
// compacting. The compaction loop must not start while comparisons are
// still running: compacting in place shifts kept cuts into slots the inner
// loop has yet to read, so a later iteration — including one observed
// concurrently by a streaming consumer — could compare against a
// transiently reordered list. Order is preserved, so a list canonical
// under SortByLeaves stays canonical.
func FilterDominatedFor(root uint32, cs []Cut) []Cut {
	n := len(cs)
	if n < 2 {
		return cs
	}
	var stack [4]uint64
	var drop []uint64
	if n <= 256 {
		drop = stack[:]
	} else {
		drop = make([]uint64, (n+63)/64)
	}
	for i := range cs {
		ci := &cs[i]
		for j := range cs {
			if i == j {
				continue
			}
			cj := &cs[j]
			// Cheap rejections before the O(len) leaf walk: a longer list
			// can never be a subset, and any leaf bit missing from ci's
			// Bloom signature proves non-subset. The trivial cut dominates
			// nothing.
			if len(cj.Leaves) > len(ci.Leaves) || cj.Sig&^ci.Sig != 0 || cj.IsTrivial(root) {
				continue
			}
			if subsetOf(cj, ci) {
				// Equal leaf sets: keep the earlier one.
				if len(cj.Leaves) == len(ci.Leaves) && j > i {
					continue
				}
				drop[i>>6] |= 1 << (uint(i) & 63)
				break
			}
		}
	}
	out := cs[:0]
	for i := range cs {
		if drop[i>>6]&(1<<(uint(i)&63)) == 0 {
			out = append(out, cs[i])
		}
	}
	return out
}

// Features computes the nine structural cut features of paper §IV-A:
// root-inverted flag, leaf count, volume, min/max/sum leaf level and
// min/max/sum leaf fanout.
func (c *Cut) Features(g *aig.AIG, root uint32) [9]float64 {
	var f [9]float64
	if g.HasInvertedFanout(root) {
		f[0] = 1
	}
	f[1] = float64(len(c.Leaves))
	f[2] = float64(c.Volume)
	minLvl, maxLvl, sumLvl := int32(1<<30), int32(-1), int32(0)
	minFO, maxFO, sumFO := int32(1<<30), int32(-1), int32(0)
	for _, l := range c.Leaves {
		lv := g.Level(l)
		fo := g.Fanout(l)
		if lv < minLvl {
			minLvl = lv
		}
		if lv > maxLvl {
			maxLvl = lv
		}
		sumLvl += lv
		if fo < minFO {
			minFO = fo
		}
		if fo > maxFO {
			maxFO = fo
		}
		sumFO += fo
	}
	f[3] = float64(minLvl)
	f[4] = float64(maxLvl)
	f[5] = float64(sumLvl)
	f[6] = float64(minFO)
	f[7] = float64(maxFO)
	f[8] = float64(sumFO)
	return f
}

// FeatureNames labels the entries of Features for reports and the
// permutation-importance experiment.
var FeatureNames = [9]string{
	"rootInverted", "numLeaves", "volume",
	"minLeafLevel", "maxLeafLevel", "sumLeafLevel",
	"minLeafFanout", "maxLeafFanout", "sumLeafFanout",
}

// SortByLeaves orders cuts by ascending leaf count, breaking ties by larger
// volume (more logic absorbed) then lexicographic leaves — the vanilla ABC
// ordering the paper describes. The sort is unstable and allocation-free,
// so the leaf sets must be pairwise distinct, as in every enumerated list
// (mergeNode and enrichChoices share one dedupe table; ensureTrivialCut
// checks before it appends). The tie-break chain is then a total order: the
// result is independent of the input permutation and equals a stable sort's.
func SortByLeaves(cs []Cut) {
	slices.SortFunc(cs, compareByLeaves)
}

func compareByLeaves(a, b Cut) int {
	if len(a.Leaves) != len(b.Leaves) {
		return len(a.Leaves) - len(b.Leaves)
	}
	if a.Volume != b.Volume {
		return int(b.Volume) - int(a.Volume)
	}
	return slices.Compare(a.Leaves, b.Leaves)
}

// String renders the cut for debugging.
func (c *Cut) String() string {
	return fmt.Sprintf("cut%v vol=%d tt=%08x", c.Leaves, c.Volume, uint32(c.TT))
}
