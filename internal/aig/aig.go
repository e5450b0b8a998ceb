// Package aig implements And-Inverter Graphs (AIGs), the subject-graph
// representation used by the SLAP technology-mapping flow.
//
// An AIG is a DAG whose internal nodes are two-input AND gates and whose
// edges may be complemented. Node 0 is the constant-false node; primary
// inputs have no fanins. Edges are encoded as literals in the AIGER
// convention: literal = 2*node + complement bit, so literal 0 is constant
// false and literal 1 constant true.
//
// Nodes are created in topological order (fanins always precede a node), so
// iterating node ids ascending is a valid topological traversal.
package aig

import (
	"fmt"
	"sync/atomic"
)

// Lit is an edge literal: 2*node + complement bit.
type Lit uint32

// ConstFalse and ConstTrue are the two constant literals.
const (
	ConstFalse Lit = 0
	ConstTrue  Lit = 1
)

// MakeLit builds a literal from a node id and a complement flag.
func MakeLit(node uint32, compl bool) Lit {
	l := Lit(node << 1)
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node id the literal refers to.
func (l Lit) Node() uint32 { return uint32(l) >> 1 }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complement of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

type nodeType uint8

const (
	typeConst nodeType = iota
	typePI
	typeAnd
)

type node struct {
	f0, f1 Lit
	typ    nodeType
}

// PO is a named primary output driven by a literal.
type PO struct {
	Name string
	Lit  Lit
}

// AIG is an And-Inverter Graph.
type AIG struct {
	Name string

	nodes  []node
	pis    []uint32
	piName []string
	pos    []PO

	strash map[[2]Lit]uint32

	// Lazily computed structural annotations, published atomically so
	// concurrent read-only users — e.g. parallel random mappings of one
	// shared training graph — neither race with each other nor with the
	// first computation; nil (cleared on mutation) when stale. Duplicate
	// concurrent computes are harmless: the build is deterministic, so
	// whichever publication wins carries identical contents.
	levels  atomic.Pointer[[]int32]
	rlevels atomic.Pointer[[]int32]
	fan     atomic.Pointer[fanoutAnnot]
}

// fanoutAnnot bundles the two fanout-derived annotations that are
// computed by one pass and must publish together.
type fanoutAnnot struct {
	fanouts []int32
	invOut  []bool
}

// New returns an empty AIG containing only the constant node.
func New(name string) *AIG {
	g := &AIG{
		Name:   name,
		nodes:  make([]node, 1, 1024),
		strash: make(map[[2]Lit]uint32),
	}
	g.nodes[0] = node{typ: typeConst}
	return g
}

// NumNodes returns the total node count including the constant node.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *AIG) NumPOs() int { return len(g.pos) }

// NumAnds returns the number of AND nodes.
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// PIs returns the node ids of the primary inputs in creation order.
func (g *AIG) PIs() []uint32 { return g.pis }

// PIName returns the name of the i-th primary input.
func (g *AIG) PIName(i int) string { return g.piName[i] }

// POs returns the primary outputs in creation order.
func (g *AIG) POs() []PO { return g.pos }

// IsPI reports whether node n is a primary input.
func (g *AIG) IsPI(n uint32) bool { return g.nodes[n].typ == typePI }

// IsAnd reports whether node n is an AND node.
func (g *AIG) IsAnd(n uint32) bool { return g.nodes[n].typ == typeAnd }

// IsConst reports whether node n is the constant node.
func (g *AIG) IsConst(n uint32) bool { return g.nodes[n].typ == typeConst }

// Fanins returns the two fanin literals of AND node n.
func (g *AIG) Fanins(n uint32) (Lit, Lit) {
	nd := &g.nodes[n]
	return nd.f0, nd.f1
}

// AddPI creates a new primary input and returns its (positive) literal.
func (g *AIG) AddPI(name string) Lit {
	id := uint32(len(g.nodes))
	g.nodes = append(g.nodes, node{typ: typePI})
	g.pis = append(g.pis, id)
	if name == "" {
		name = fmt.Sprintf("pi%d", len(g.pis)-1)
	}
	g.piName = append(g.piName, name)
	g.invalidate()
	return MakeLit(id, false)
}

// AddPO registers a primary output driven by lit.
func (g *AIG) AddPO(name string, lit Lit) {
	if name == "" {
		name = fmt.Sprintf("po%d", len(g.pos))
	}
	g.pos = append(g.pos, PO{Name: name, Lit: lit})
	g.invalidate()
}

// And returns a literal for the conjunction of a and b, reusing structurally
// identical nodes and applying constant/trivial simplifications.
func (g *AIG) And(a, b Lit) Lit {
	// Normalise operand order for structural hashing.
	if a > b {
		a, b = b, a
	}
	switch {
	case a == ConstFalse:
		return ConstFalse
	case a == ConstTrue:
		return b
	case a == b:
		return a
	case a == b.Not():
		return ConstFalse
	}
	key := [2]Lit{a, b}
	if id, ok := g.strash[key]; ok {
		return MakeLit(id, false)
	}
	id := uint32(len(g.nodes))
	g.nodes = append(g.nodes, node{f0: a, f1: b, typ: typeAnd})
	g.strash[key] = id
	g.invalidate()
	return MakeLit(id, false)
}

// Or returns the disjunction of a and b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns the exclusive-or of a and b.
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Xnor returns the complement of Xor.
func (g *AIG) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Nand returns the complement of And.
func (g *AIG) Nand(a, b Lit) Lit { return g.And(a, b).Not() }

// Nor returns the complement of Or.
func (g *AIG) Nor(a, b Lit) Lit { return g.Or(a, b).Not() }

// Mux returns sel ? t : e.
func (g *AIG) Mux(sel, t, e Lit) Lit {
	return g.Or(g.And(sel, t), g.And(sel.Not(), e))
}

// Maj returns the majority of three literals.
func (g *AIG) Maj(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// AndN folds And over a slice of literals; it returns ConstTrue for an
// empty slice.
func (g *AIG) AndN(ls []Lit) Lit {
	out := ConstTrue
	for _, l := range ls {
		out = g.And(out, l)
	}
	return out
}

// OrN folds Or over a slice of literals; it returns ConstFalse for an
// empty slice.
func (g *AIG) OrN(ls []Lit) Lit {
	out := ConstFalse
	for _, l := range ls {
		out = g.Or(out, l)
	}
	return out
}

func (g *AIG) invalidate() {
	g.levels.Store(nil)
	g.rlevels.Store(nil)
	g.fan.Store(nil)
}

// levelSlice returns the level annotation, computing and publishing it on
// first use.
func (g *AIG) levelSlice() []int32 {
	if p := g.levels.Load(); p != nil {
		return *p
	}
	ls := g.computeLevels()
	g.levels.Store(&ls)
	return ls
}

// Level returns the longest structural path from any PI to node n,
// inclusive. PIs and the constant node have level 0.
func (g *AIG) Level(n uint32) int32 {
	return g.levelSlice()[n]
}

// MaxLevel returns the depth of the graph (largest node level).
func (g *AIG) MaxLevel() int32 {
	var m int32
	for _, l := range g.levelSlice() {
		if l > m {
			m = l
		}
	}
	return m
}

func (g *AIG) computeLevels() []int32 {
	levels := make([]int32, len(g.nodes))
	for i := 1; i < len(g.nodes); i++ {
		nd := &g.nodes[i]
		if nd.typ != typeAnd {
			continue
		}
		l0 := levels[nd.f0.Node()]
		l1 := levels[nd.f1.Node()]
		if l1 > l0 {
			l0 = l1
		}
		levels[i] = l0 + 1
	}
	return levels
}

// ReverseLevel returns the longest structural path from node n to any PO.
// A node directly driving a PO (and nothing else) has reverse level 0.
func (g *AIG) ReverseLevel(n uint32) int32 {
	if p := g.rlevels.Load(); p != nil {
		return (*p)[n]
	}
	rl := g.computeReverseLevels()
	g.rlevels.Store(&rl)
	return rl[n]
}

func (g *AIG) computeReverseLevels() []int32 {
	rlevels := make([]int32, len(g.nodes))
	// Reverse topological order: nodes are in topo order, walk backwards.
	for i := len(g.nodes) - 1; i >= 1; i-- {
		nd := &g.nodes[i]
		if nd.typ != typeAnd {
			continue
		}
		r := rlevels[i] + 1
		for _, f := range [2]Lit{nd.f0, nd.f1} {
			fn := f.Node()
			if r > rlevels[fn] {
				rlevels[fn] = r
			}
		}
	}
	return rlevels
}

// fanAnnot returns the fanout annotations, computing and publishing them
// on first use.
func (g *AIG) fanAnnot() *fanoutAnnot {
	if p := g.fan.Load(); p != nil {
		return p
	}
	fa := g.computeFanouts()
	g.fan.Store(fa)
	return fa
}

// Fanout returns the number of fanout edges of node n, counting both AND
// fanins and primary outputs.
func (g *AIG) Fanout(n uint32) int32 {
	return g.fanAnnot().fanouts[n]
}

// HasInvertedFanout reports whether some fanout edge (AND fanin or PO)
// references node n complemented. This is the inv(e0) feature of the paper's
// node embedding.
func (g *AIG) HasInvertedFanout(n uint32) bool {
	return g.fanAnnot().invOut[n]
}

func (g *AIG) computeFanouts() *fanoutAnnot {
	fa := &fanoutAnnot{
		fanouts: make([]int32, len(g.nodes)),
		invOut:  make([]bool, len(g.nodes)),
	}
	for i := 1; i < len(g.nodes); i++ {
		nd := &g.nodes[i]
		if nd.typ != typeAnd {
			continue
		}
		for _, f := range [2]Lit{nd.f0, nd.f1} {
			fa.fanouts[f.Node()]++
			if f.IsCompl() {
				fa.invOut[f.Node()] = true
			}
		}
	}
	for _, po := range g.pos {
		fa.fanouts[po.Lit.Node()]++
		if po.Lit.IsCompl() {
			fa.invOut[po.Lit.Node()] = true
		}
	}
	return fa
}

// Simulate evaluates the graph on 64 input patterns at once. piValues[i]
// holds 64 packed values for the i-th PI. It returns one packed word per PO.
func (g *AIG) Simulate(piValues []uint64) []uint64 {
	if len(piValues) != len(g.pis) {
		panic(fmt.Sprintf("aig: Simulate needs %d PI words, got %d", len(g.pis), len(piValues)))
	}
	vals := g.SimulateNodes(piValues)
	out := make([]uint64, len(g.pos))
	for i, po := range g.pos {
		v := vals[po.Lit.Node()]
		if po.Lit.IsCompl() {
			v = ^v
		}
		out[i] = v
	}
	return out
}

// SimulateNodes evaluates the graph on 64 packed input patterns and returns
// the value word of every node (indexed by node id, uncomplemented).
func (g *AIG) SimulateNodes(piValues []uint64) []uint64 {
	vals := make([]uint64, len(g.nodes))
	pi := 0
	for i := 1; i < len(g.nodes); i++ {
		nd := &g.nodes[i]
		switch nd.typ {
		case typePI:
			vals[i] = piValues[pi]
			pi++
		case typeAnd:
			a := vals[nd.f0.Node()]
			if nd.f0.IsCompl() {
				a = ^a
			}
			b := vals[nd.f1.Node()]
			if nd.f1.IsCompl() {
				b = ^b
			}
			vals[i] = a & b
		}
	}
	return vals
}

// ConeSize returns the number of AND nodes in the transitive fanin cone of
// node n, stopping at PIs.
func (g *AIG) ConeSize(n uint32) int {
	seen := make(map[uint32]bool)
	var walk func(m uint32)
	count := 0
	walk = func(m uint32) {
		if seen[m] || !g.IsAnd(m) {
			return
		}
		seen[m] = true
		count++
		nd := &g.nodes[m]
		walk(nd.f0.Node())
		walk(nd.f1.Node())
	}
	walk(n)
	return count
}

// Stats returns a one-line human-readable summary of the graph.
func (g *AIG) Stats() string {
	return fmt.Sprintf("%s: pi=%d po=%d and=%d level=%d",
		g.Name, g.NumPIs(), g.NumPOs(), g.NumAnds(), g.MaxLevel())
}
