// Package choice builds choice views over AIGs: several structurally
// distinct but functionally equivalent variants of a subject graph (produced
// by internal/opt rewrites) are grafted into one combined AIG, functional
// equivalence classes are proposed by packed-pattern simulation signatures
// and proven by an embedded CDCL SAT check (see sat.go), and the result is
// exposed as a cuts.ChoiceSource so the enumerator can match the union of
// every class member's cuts — the "choice network" of ABC's &if -C and
// also's choice_lut_mapper.
//
// The combined graph shares the base graph's PIs (same count, order and
// names) and takes its POs from the base image, so a netlist mapped over the
// view verifies directly against the original graph. The base is grafted
// last: structural hashing dedupes shared logic, and any node of a variant
// that is structurally distinct from its base equivalent keeps a smaller id
// and (for balance-style variants) a no-greater level — which is what makes
// it eligible as a choice member under the enumerator's id/level rule.
//
// Construction runs in three phases — graft, simulate, prove — the latter
// two parallel across Options.Workers yet byte-identical to sequential for
// any worker count: simulation patterns are pre-generated in a fixed order
// and only the per-word evaluation fans out, and proving is parallel at
// equivalence-class granularity with a class-local cone-scoped solver, so
// every class's verdicts are a pure function of (graph, class, options).
package choice

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/opt"
	"slap/internal/par"
)

// View construction constants.
const (
	// variants is the number of seeded balance variants grafted in addition
	// to the deterministic Optimize variant.
	variants = 2
	// seed drives the seeded rewrites and the random simulation patterns.
	seed int64 = 1
	// maxMembers caps the member list attached to any single node.
	maxMembers = 8
	// simWords is the number of 64-pattern words per signature pass when
	// the graph has too many PIs for exhaustive simulation. Two independent
	// passes are always run (2048 random patterns).
	simWords = 16
)

// Options tunes view construction. The zero value picks the defaults.
type Options struct {
	// ProofConflicts is the per-call SAT conflict budget used to prove each
	// candidate member when simulation is not exhaustive. Members whose
	// proof does not finish inside the budget are dropped (sound: the view
	// just offers fewer alternatives). Default 4000.
	ProofConflicts int64
	// Workers bounds the goroutines used for simulation and class proving.
	// Scheduling only: the built view is byte-identical for any value, so
	// Workers is excluded from Sig. Default GOMAXPROCS.
	Workers int
}

// exhaustiveMaxPIs bounds exhaustive signature simulation: up to 11 PIs the
// signature covers all 2^n patterns (<= 32 words) and class membership is a
// proof, not a probabilistic check.
const exhaustiveMaxPIs = 11

func (o *Options) fill() {
	if o.ProofConflicts <= 0 {
		o.ProofConflicts = 4000
	}
}

// Sig returns the content signature of the options: every value that can
// change the built view, with defaults folded in so an explicit default and
// the zero value key identically. Workers is deliberately excluded — it is
// a scheduling knob and the view is byte-identical across worker counts —
// which is what lets one cached view serve requests with different
// parallelism settings. The construction constants stay in the string: it
// is part of core.Mapping.Sig, whose length the result cache charges.
func (o Options) Sig() string {
	c := o
	c.fill()
	return fmt.Sprintf("variants=%d/seed=%d/mm=%d/sw=%d/pc=%d",
		variants, seed, maxMembers, simWords, c.ProofConflicts)
}

// PhaseTimings records wall time spent in each build phase.
type PhaseTimings struct {
	Graft    time.Duration
	Simulate time.Duration
	Prove    time.Duration
}

// View is a built choice view. It implements cuts.ChoiceSource over G.
// A View is immutable after Build returns and safe to share across
// goroutines — this is what makes cached views checkoutable concurrently.
type View struct {
	// G is the combined graph to enumerate and map; its PIs and POs are the
	// base graph's (same order, names and semantics).
	G *aig.AIG
	// Base is the original subject graph the view was built from.
	Base *aig.AIG

	members    [][]cuts.ChoiceMember
	classes    int
	memberRefs int
	exhaustive bool

	proved        int // node certificates discharged by the SAT prover
	droppedDiffer int // candidates refuted by a SAT counterexample
	droppedBudget int // candidates whose proof exhausted the conflict budget

	phases PhaseTimings
}

// MembersOf returns node n's equivalence-class members, each satisfying
// id(m) < n, level(m) < level(n). It implements cuts.ChoiceSource.
func (v *View) MembersOf(n uint32) []cuts.ChoiceMember {
	if int(n) >= len(v.members) {
		return nil
	}
	return v.members[n]
}

// Classes returns the number of non-trivial equivalence classes found.
func (v *View) Classes() int { return v.classes }

// MemberRefs returns the total number of (node, member) enrichment edges.
func (v *View) MemberRefs() int { return v.memberRefs }

// DroppedMembers returns the number of candidate class nodes discarded
// because their equivalence certificate against the class representative
// failed or exceeded the conflict budget.
func (v *View) DroppedMembers() int { return v.droppedDiffer + v.droppedBudget }

// ProvedMembers returns the number of node certificates the SAT prover
// discharged. Zero when simulation was exhaustive (signatures are proofs).
func (v *View) ProvedMembers() int { return v.proved }

// DroppedDiffer returns the candidates refuted by a SAT counterexample —
// signature collisions that were genuinely different functions.
func (v *View) DroppedDiffer() int { return v.droppedDiffer }

// DroppedBudget returns the candidates dropped because their proof did not
// finish inside the per-pair conflict budget.
func (v *View) DroppedBudget() int { return v.droppedBudget }

// Exhaustive reports whether class membership was proven by exhaustive
// simulation (true iff the base has <= 11 PIs).
func (v *View) Exhaustive() bool { return v.exhaustive }

// Phases returns the wall time spent in each build phase.
func (v *View) Phases() PhaseTimings { return v.phases }

// SizeBytes estimates the resident size of the view (combined graph plus
// member lists) for cache byte accounting. The base graph is caller-owned
// and not counted.
func (v *View) SizeBytes() int64 {
	const nodeBytes = 32 // id-indexed node record + level/fanout annotations
	sz := int64(v.G.NumNodes()) * nodeBytes
	sz += int64(len(v.members)) * 24 // slice headers
	sz += int64(v.memberRefs) * 8    // cuts.ChoiceMember entries
	return sz
}

// Build constructs a choice view of base: rewrite variants, graft them and
// the base into a combined strashed graph, and class the combined nodes by
// simulation signature. Construction is deterministic for a given (base,
// Options) pair — for any Workers count — which keeps multi-round mapping
// byte-identical across workers and cache keys stable.
func Build(base *aig.AIG, o Options) *View {
	v, _ := BuildContext(context.Background(), base, o)
	return v
}

// BuildContext is Build with cancellation: simulation stops between pattern
// words and proving stops between classes when ctx is done, so a dropped
// /v1/map client or an expired deadline does not keep burning SAT budget.
// The only possible error is ctx.Err().
func BuildContext(ctx context.Context, base *aig.AIG, o Options) (*View, error) {
	o.fill()

	t := time.Now()
	v := combine(base)
	v.phases.Graft = time.Since(t)

	t = time.Now()
	prop, err := v.propose(ctx, o)
	if err != nil {
		return nil, err
	}
	v.phases.Simulate = time.Since(t)

	t = time.Now()
	if err := v.prove(ctx, prop, o); err != nil {
		return nil, err
	}
	v.phases.Prove = time.Since(t)
	return v, nil
}

// combine is the graft phase: rewrite variants of base and strash them plus
// the base itself into one combined graph sharing the base's PI/PO
// interface.
func combine(base *aig.AIG) *View {
	swept := opt.Sweep(base)
	vs := make([]*aig.AIG, 0, 1+variants)
	vs = append(vs, opt.Sweep(opt.Balance(swept)))
	for i := 0; i < variants; i++ {
		vs = append(vs, opt.Sweep(opt.BalanceSeeded(swept, seed+int64(i)*0x9e3779b9)))
	}

	comb := aig.New(base.Name)
	piLits := make([]aig.Lit, base.NumPIs())
	for i := range piLits {
		piLits[i] = comb.AddPI(base.PIName(i))
	}
	for _, v := range vs {
		opt.Graft(comb, piLits, v)
	}
	mapLit := opt.Graft(comb, piLits, base)
	for _, po := range base.POs() {
		comb.AddPO(po.Name, mapLit(po.Lit))
	}

	return &View{G: comb, Base: base, members: make([][]cuts.ChoiceMember, comb.NumNodes())}
}

// proposal is the simulate phase's output: candidate equivalence classes in
// their canonical proving order plus each node's polarity relative to its
// class's canonical phase.
type proposal struct {
	classes [][]uint32
	pol     []bool
}

// propose is the simulate phase: compute per-node signatures of the combined
// graph under pre-generated patterns (parallel across words), canonicalise
// polarity, and group equal signatures into candidate classes sorted by
// their first node id.
func (v *View) propose(ctx context.Context, o Options) (*proposal, error) {
	g := v.G
	numNodes := g.NumNodes()
	if numNodes <= 1 {
		return &proposal{}, nil
	}

	var words int
	exhaustive := g.NumPIs() <= exhaustiveMaxPIs
	if exhaustive {
		words = 1
		if g.NumPIs() > 6 {
			words = 1 << (g.NumPIs() - 6)
		}
	} else {
		// Two independent random passes, concatenated: a collision must
		// survive both to create a false class.
		words = 2 * simWords
	}
	v.exhaustive = exhaustive

	// Pre-generate every pattern word in the fixed sequential order the rng
	// defines; only the (pure) per-word graph evaluation fans out below, so
	// the signatures are identical for any worker count.
	patterns := make([][]uint64, words)
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	for w := 0; w < words; w++ {
		piVals := make([]uint64, g.NumPIs())
		for i := range piVals {
			if exhaustive {
				piVals[i] = exhaustiveWord(i, w)
			} else {
				piVals[i] = rng.Uint64()
			}
		}
		patterns[w] = piVals
	}

	sigs := make([]uint64, numNodes*words)
	err := par.For(ctx, words, o.Workers, func(_ context.Context, _, w int) error {
		vals := g.SimulateNodes(patterns[w])
		for n := 0; n < numNodes; n++ {
			sigs[n*words+w] = vals[n]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Canonicalise polarity: a node whose pattern-0 value is 1 is stored
	// complemented, so n and NOT(n) land in the same class with pol
	// recording which phase each is in.
	pol := make([]bool, numNodes)
	mask := ^uint64(0)
	if exhaustive && g.NumPIs() < 6 {
		mask = (1 << (1 << g.NumPIs())) - 1
	}
	for n := 0; n < numNodes; n++ {
		s := sigs[n*words : (n+1)*words]
		if s[0]&1 != 0 {
			pol[n] = true
			for i := range s {
				s[i] = ^s[i]
			}
		}
		for i := range s {
			s[i] &= mask
		}
	}

	// Group by signature hash, confirming equality inside each bucket.
	type bucket struct{ nodes []uint32 }
	byHash := make(map[uint64]*bucket, numNodes)
	hashSig := func(s []uint64) uint64 {
		h := uint64(0xcbf29ce484222325)
		for _, w := range s {
			h = (h ^ w) * 0x100000001b3
		}
		return h
	}
	sigOf := func(n uint32) []uint64 { return sigs[int(n)*words : (int(n)+1)*words] }
	sigEq := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	isConstSig := func(s []uint64) bool {
		for _, w := range s {
			if w != 0 {
				return false
			}
		}
		return true
	}
	for n := uint32(1); n < uint32(numNodes); n++ {
		if !g.IsAnd(n) && !g.IsPI(n) {
			continue
		}
		if isConstSig(sigOf(n)) {
			continue // constant-valued under the patterns: never a useful choice
		}
		h := hashSig(sigOf(n))
		b := byHash[h]
		if b == nil {
			b = &bucket{}
			byHash[h] = b
		}
		b.nodes = append(b.nodes, n)
	}

	var classes [][]uint32
	for _, b := range byHash {
		// Nodes arrive in ascending id (the fill loop runs in id order). A
		// hash bucket can mix several true classes on collision: peel them
		// off front to back.
		nodes := b.nodes
		for len(nodes) > 1 {
			ref := sigOf(nodes[0])
			var class, rest []uint32
			class = append(class, nodes[0])
			for _, m := range nodes[1:] {
				if sigEq(ref, sigOf(m)) {
					class = append(class, m)
				} else {
					rest = append(rest, m)
				}
			}
			if len(class) > 1 {
				classes = append(classes, class)
			}
			nodes = rest
		}
	}
	// Classes from distinct buckets are disjoint, but the map iteration
	// above is unordered — fix a canonical order so class indices (and the
	// applied results) are deterministic.
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return &proposal{classes: classes, pol: pol}, nil
}

// classResult holds one class's proof state plus its outcome tallies,
// computed by whichever worker claimed the class. certified lists the class
// nodes whose equivalence certificate succeeded (ascending id) — classes in
// later level groups install those equivalences as solver facts.
type classResult struct {
	proven    []bool
	certified []uint32

	proved, droppedDiffer, droppedBudget int
}

// prove is the prove phase: discharge every candidate class and materialise
// the eligible member lists. Classes are the parallel work units — each is
// proven on a solver scoped to its transitive-fanin cone (see coneProver),
// so no solver state is shared between classes or workers — scheduled as a
// level wavefront: classes are grouped by the level of their deepest node
// and the groups run in ascending order with a barrier between them, each
// class installing the certified equivalences of all earlier groups
// (restricted to its cone) as hard clauses before solving. The wavefront
// order makes certification inductive, exactly like sequential fraiging: a
// class's fact sources — classes with at least two nodes inside its cone —
// consist entirely of strictly lower-level nodes (a cone's only
// maximum-level nodes are the class's own), so every fact a proof could use
// exists before the proof is attempted and a deep pair propagates to
// equality instead of being re-derived by search. Each group's fact base is
// frozen at its barrier (workers replace a class's certified slice, never
// mutate it), so every verdict is a pure function of (graph, proposal,
// options) — never of scheduling — and the assembled view is
// byte-identical for any Workers count. When simulation was exhaustive the
// signatures are truth tables and membership is already proven; only the
// eligibility filtering runs, in a single group.
func (v *View) prove(ctx context.Context, prop *proposal, o Options) error {
	classes := prop.classes
	if len(classes) == 0 {
		return ctx.Err()
	}
	g := v.G
	g.Level(0) // force the lazy level annotation once, before workers share g

	results := make([]classResult, len(classes))

	// Group class indices by max node level, groups in ascending level
	// order. Exhaustive views need no facts, hence a single group.
	var groups [][]int32
	if v.exhaustive {
		all := make([]int32, len(classes))
		for i := range all {
			all[i] = int32(i)
		}
		groups = [][]int32{all}
	} else {
		byLevel := make(map[int32][]int32)
		var levels []int32
		for i, class := range classes {
			maxLvl := int32(0)
			for _, n := range class {
				if l := g.Level(n); l > maxLvl {
					maxLvl = l
				}
			}
			if _, ok := byLevel[maxLvl]; !ok {
				levels = append(levels, maxLvl)
			}
			byLevel[maxLvl] = append(byLevel[maxLvl], int32(i))
		}
		sort.Slice(levels, func(a, b int) bool { return levels[a] < levels[b] })
		for _, l := range levels {
			groups = append(groups, byLevel[l])
		}
	}

	// One prover per worker serves every group: load resets it for each
	// class. None is built when simulation was exhaustive.
	provers := make([]*coneProver, par.Workers(o.Workers))
	snap := make([][]uint32, len(classes))
	for _, group := range groups {
		err := par.For(ctx, len(group), len(provers), func(_ context.Context, w, k int) error {
			if provers[w] == nil && !v.exhaustive {
				provers[w] = newConeProver(g)
			}
			i := group[k]
			results[i] = proveClass(g, classes[i], prop.pol, provers[w], snap, o)
			return nil
		})
		if err != nil {
			return err
		}
		for _, i := range group {
			snap[i] = results[i].certified
		}
	}

	for i := range results {
		r := &results[i]
		v.classes++
		nodes, members := buildMembers(g, classes[i], prop.pol, r.proven, o)
		for j, n := range nodes {
			v.members[n] = members[j]
			v.memberRefs += len(members[j])
		}
		v.proved += r.proved
		v.droppedDiffer += r.droppedDiffer
		v.droppedBudget += r.droppedBudget
	}
	return nil
}

// proveClass discharges one equivalence class: unless simulation was
// exhaustive (pr == nil), every node must be SAT-certified on the class's
// cone-scoped solver. Before solving, the certified equivalences of every
// already-proven class with at least two nodes in this class's cone (snap,
// frozen at the level-group barrier) are installed — chained pairwise in
// ascending class then node order — as hard solver facts: true
// equivalences exclude no model, so both SAT and UNSAT answers stay sound,
// and a deep miter whose fanin classes are certified propagates to
// equality instead of re-deriving their equivalence by search.
// Certification itself is a chain: each node proves equivalence to its
// nearest previously-certified classmate (the highest certified id below
// it). Strash assigns nearby ids to nearby structure, so the chain miter
// between two adjacent variants of the same logic is small and the proof
// cheap, while certified pairs follow by transitivity — n == p and m == p
// imply n == m — so the full member lists need |class|-1 solver calls
// instead of one per (node, member) pair. A certificate refuted by a
// counterexample or out of budget is dropped for good (sound: the view
// just offers fewer alternatives).
func proveClass(g *aig.AIG, class []uint32, pol []bool, pr *coneProver, snap [][]uint32, o Options) classResult {
	var r classResult
	r.proven = make([]bool, len(class))
	r.proven[0] = true
	if pr == nil {
		for i := range r.proven {
			r.proven[i] = true
		}
		return r
	}
	pr.load(class)
	for _, certified := range snap {
		prev := int32(-1)
		for _, c := range certified {
			if pr.node2var[c] < 0 {
				continue
			}
			if prev >= 0 {
				pr.addFact(uint32(prev), c, pol[prev] != pol[c])
			}
			prev = int32(c)
		}
	}
	anchor := class[0]
	for i := 1; i < len(class); i++ {
		n := class[i]
		ok, exhausted := pr.equivalent(n, anchor, pol[n] != pol[anchor], o.ProofConflicts)
		r.proven[i] = ok
		switch {
		case ok:
			r.proved++
			anchor = n
		case exhausted:
			r.droppedBudget++
		default:
			r.droppedDiffer++
		}
	}
	r.certified = certifiedNodes(class, r.proven)
	return r
}

// certifiedNodes lists the class nodes whose certificate succeeded,
// ascending; classes with fewer than two carry no usable equivalence.
func certifiedNodes(class []uint32, proven []bool) []uint32 {
	var cs []uint32
	for i, n := range class {
		if proven[i] {
			cs = append(cs, n)
		}
	}
	if len(cs) < 2 {
		return nil
	}
	return cs
}

// buildMembers materialises the eligible member list of every certified AND
// node in one class: members must themselves be certified and have strictly
// smaller id and strictly smaller level than the node they enrich (see
// cuts.ChoiceSource). An uncertified node neither offers nor receives
// members, which is sound — the view just offers fewer alternatives.
func buildMembers(g *aig.AIG, class []uint32, pol []bool, proven []bool, o Options) (nodes []uint32, members [][]cuts.ChoiceMember) {
	for i, n := range class {
		if !proven[i] || !g.IsAnd(n) {
			continue
		}
		ln := g.Level(n)
		var ms []cuts.ChoiceMember
		for j, m := range class[:i] {
			if !proven[j] || g.Level(m) >= ln {
				continue
			}
			ms = append(ms, cuts.ChoiceMember{Node: m, Compl: pol[m] != pol[n]})
			if len(ms) >= maxMembers {
				break
			}
		}
		if len(ms) > 0 {
			nodes = append(nodes, n)
			members = append(members, ms)
		}
	}
	return nodes, members
}

// exhaustiveWord returns the packed value word of PI i for exhaustive
// pattern word w: the first six PIs cycle inside a word with the canonical
// truth-table variable masks, higher PIs select on bits of w.
func exhaustiveWord(i, w int) uint64 {
	var varMask = [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	if i < 6 {
		return varMask[i]
	}
	if (w>>(i-6))&1 != 0 {
		return ^uint64(0)
	}
	return 0
}
