// Package lutmap implements K-LUT FPGA technology mapping over the same
// priority-cuts framework as the ASIC mapper: depth-optimal LUT covering
// with an area-flow recovery pass (the classic FlowMap/if-mapper scheme of
// the paper's refs [14], [15]).
//
// The paper argues its findings "can be extended to benefit FPGA-mapping
// ... as the nature of the problem is the same"; this package demonstrates
// exactly that: any cuts.Policy — and the SLAP ML filter, which feeds its
// filtered lists into a Stream — plugs into LUT mapping unchanged.
package lutmap

import (
	"fmt"
	"math"
	"math/rand"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/tt"
)

// Options configures a LUT mapping run.
type Options struct {
	// Policy is the cut sorting/filtering policy; nil enumerates
	// exhaustively (subject to MergeCap).
	Policy cuts.Policy
	// MergeCap bounds per-node cut lists during enumeration (0 = default).
	MergeCap int
	// NoAreaRecovery disables the area-flow pass.
	NoAreaRecovery bool
	// Workers bounds cut-enumeration parallelism: 0 = one worker per CPU
	// core, 1 = sequential (see cuts.Enumerator.Workers).
	Workers int
	// Pool, when set, lets MapStream check cut-arena storage in and out
	// across runs of the same graph shape.
	Pool *cuts.Pool
	// Rounds is the total number of selection rounds. Values <= 1 keep the
	// classic schedule (depth pass + one area-flow pass unless
	// NoAreaRecovery). Values > 1 run the multi-round engine: round 1 is
	// depth-optimal, rounds 2..Rounds re-select by area flow under required
	// depths frozen from the round-1 depth (scaled by DelayFactor), and the
	// final round adds an exact-area (ref/deref) refinement.
	// NoAreaRecovery forces single-round behaviour.
	Rounds int
	// DelayFactor scales the round-1 depth into the recovery rounds'
	// required-depth target; values <= 1 (including zero) pin the round-1
	// optimum.
	DelayFactor float64
	// Choices exposes functional equivalence classes to cut enumeration
	// (see cuts.ChoiceSource and internal/choice).
	Choices cuts.ChoiceSource
}

// LUT is one lookup table of the mapped network.
type LUT struct {
	// Root is the subject node the LUT implements.
	Root uint32
	// Leaves are the LUT input nodes.
	Leaves []uint32
	// TT is the implemented function over the leaves.
	TT tt.TT
}

// Result is a mapped LUT network.
type Result struct {
	// LUTs lists the network in topological order.
	LUTs []LUT
	// Depth is the maximum LUT depth from any PI.
	Depth int32
	// CutsConsidered counts cuts exposed to the mapper.
	CutsConsidered int
	// PeakCuts is the maximum number of simultaneously live cuts during
	// enumeration: the widest live level window.
	PeakCuts int
	// PolicyName records the policy.
	PolicyName string
	// RoundStats records per-round QoR when the multi-round engine ran
	// (Options.Rounds > 1); nil for the classic schedule. Entry 0 is the
	// depth round with the single-pass counters; CutsConsidered and
	// PeakCuts above aggregate across rounds (sum and max respectively).
	RoundStats []RoundStat

	g *aig.AIG
}

// RoundStat is the per-round QoR record of one multi-round LUT pass.
type RoundStat struct {
	// Round is 1-based; round 1 is always the depth-optimal pass.
	Round int
	// Mode is "depth", "area-flow" or "area-flow+exact".
	Mode string
	// LUTs is the cover size after the round.
	LUTs int
	// Depth is the cover depth after the round.
	Depth int32
	// CutsConsidered counts cuts examined this round (enumeration total for
	// round 1, selection candidates for recovery rounds).
	CutsConsidered int
	// PeakCuts is the enumeration peak for round 1, the live candidate
	// count for recovery rounds.
	PeakCuts int
}

// NumLUTs returns the LUT count (the FPGA area metric).
func (r *Result) NumLUTs() int { return len(r.LUTs) }

// lutChoice records the selected cut of one node.
type lutChoice struct {
	cutIdx int
	valid  bool
}

// lutMapping holds the per-node selection state of a Stream.
type lutMapping struct {
	g         *aig.AIG
	sets      [][]cuts.Cut
	depth     []int32
	flow      []float64
	best      []lutChoice
	fanoutEst []float64

	// Multi-round state (rounds <= 1 leaves all of it inert).
	rounds      int
	delayFactor float64
	extras      [][]cuts.Cut
	refs        []int32
	passCuts    int
}

// configureRounds installs the multi-round knobs from Options.
func (lm *lutMapping) configureRounds(opt *Options) {
	lm.rounds = opt.Rounds
	if opt.NoAreaRecovery {
		lm.rounds = 1
	}
	lm.delayFactor = opt.DelayFactor
	if lm.delayFactor < 1 {
		lm.delayFactor = 1
	}
}

// newLutMapping builds the selection state; lm.sets is left for the caller.
func newLutMapping(g *aig.AIG) *lutMapping {
	n := g.NumNodes()
	lm := &lutMapping{
		g:         g,
		depth:     make([]int32, n),
		flow:      make([]float64, n),
		best:      make([]lutChoice, n),
		fanoutEst: make([]float64, n),
		refs:      make([]int32, n),
	}
	for i := uint32(0); i < uint32(n); i++ {
		fo := float64(g.Fanout(i))
		if fo < 1 {
			fo = 1
		}
		lm.fanoutEst[i] = fo
	}
	return lm
}

// evalCut returns (depth, areaFlow) of covering a node with cut c.
func (lm *lutMapping) evalCut(c *cuts.Cut) (int32, float64) {
	var d int32
	var f float64
	for _, l := range c.Leaves {
		if lm.g.IsAnd(l) {
			if lm.depth[l] > d {
				d = lm.depth[l]
			}
			f += lm.flow[l]
		}
	}
	return d + 1, f + 1
}

// selectNode picks the node's cut: depth-optimal when required is nil,
// area-flow-optimal subject to the required depth otherwise.
func (lm *lutMapping) selectNode(node uint32, required []int32) {
	sets := lm.sets
	bd, bf := int32(math.MaxInt32), math.Inf(1)
	bi := -1
	for ci := range sets[node] {
		c := &sets[node][ci]
		if containsLeaf(c, node) {
			continue
		}
		lm.passCuts++
		d, f := lm.evalCut(c)
		fl := f / lm.fanoutEst[node]
		ok := required == nil && (d < bd || (d == bd && fl < bf)) ||
			required != nil && d <= required[node] && (fl < bf || (fl == bf && d < bd))
		if bi == -1 && (required == nil || d <= required[node]) {
			ok = true
		}
		if ok {
			bd, bf, bi = d, fl, ci
		}
	}
	if bi == -1 {
		// No cut meets the requirement: fall back to depth-best.
		for ci := range sets[node] {
			c := &sets[node][ci]
			if containsLeaf(c, node) {
				continue
			}
			d, f := lm.evalCut(c)
			fl := f / lm.fanoutEst[node]
			if d < bd || (d == bd && fl < bf) {
				bd, bf, bi = d, fl, ci
			}
		}
	}
	if bi == -1 {
		lm.best[node] = lutChoice{}
		lm.depth[node] = math.MaxInt32 / 2
		lm.flow[node] = math.Inf(1)
		return
	}
	lm.best[node] = lutChoice{cutIdx: bi, valid: true}
	lm.depth[node] = bd
	lm.flow[node] = bf
}

// selectPass runs selectNode over all AND nodes in topological order.
func (lm *lutMapping) selectPass(required []int32) {
	for node := uint32(1); node < uint32(lm.g.NumNodes()); node++ {
		if lm.g.IsAnd(node) {
			lm.selectNode(node, required)
		}
	}
}

// finish runs the area-recovery pass (unless disabled), extracts the cover
// and builds the LUT network. The depth-optimal pass must already have run
// (incrementally, inside Stream.ConsumeNode).
func (lm *lutMapping) finish(policyName string, cutsConsidered, peakCuts int, noAreaRecovery bool) (*Result, error) {
	g := lm.g
	n := g.NumNodes()
	sets := lm.sets
	var roundStats []RoundStat
	switch {
	case lm.rounds > 1:
		roundStats = lm.recoveryRounds(cutsConsidered, peakCuts)
		cutsConsidered = 0
		for _, rs := range roundStats {
			cutsConsidered += rs.CutsConsidered
			if rs.PeakCuts > peakCuts {
				peakCuts = rs.PeakCuts
			}
		}
	case !noAreaRecovery:
		lm.selectPass(lm.computeRequired(0))
	}

	// Cover extraction.
	needed := make([]bool, n)
	var stack []uint32
	push := func(m uint32) {
		if g.IsAnd(m) && !needed[m] {
			needed[m] = true
			stack = append(stack, m)
		}
	}
	for _, po := range g.POs() {
		push(po.Lit.Node())
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !lm.best[m].valid {
			return nil, fmt.Errorf("lutmap: node %d has no feasible cut", m)
		}
		c := &sets[m][lm.best[m].cutIdx]
		for _, l := range c.Leaves {
			push(l)
		}
	}

	out := &Result{
		CutsConsidered: cutsConsidered,
		PeakCuts:       peakCuts,
		PolicyName:     policyName,
		RoundStats:     roundStats,
		g:              g,
	}
	finalDepth := make([]int32, n)
	for node := uint32(1); node < uint32(n); node++ {
		if !needed[node] {
			continue
		}
		c := &sets[node][lm.best[node].cutIdx]
		var d int32
		for _, l := range c.Leaves {
			if g.IsAnd(l) && finalDepth[l] > d {
				d = finalDepth[l]
			}
		}
		finalDepth[node] = d + 1
		if finalDepth[node] > out.Depth {
			out.Depth = finalDepth[node]
		}
		out.LUTs = append(out.LUTs, LUT{
			Root:   node,
			Leaves: append([]uint32(nil), c.Leaves...),
			TT:     c.TT,
		})
	}
	return out, nil
}

// computeRequired returns per-node required depths propagated backwards
// over the current cover, with the PO requirement set to the larger of the
// current cover depth and target (so the constraint is always feasible).
// target 0 reproduces the classic single-recovery-pass requirement.
func (lm *lutMapping) computeRequired(target int32) []int32 {
	g := lm.g
	n := g.NumNodes()
	maxDepth := int32(0)
	for _, po := range g.POs() {
		if d := nodeDepth(g, lm.depth, po.Lit.Node()); d > maxDepth {
			maxDepth = d
		}
	}
	if target > maxDepth {
		maxDepth = target
	}
	required := make([]int32, n)
	for i := range required {
		required[i] = math.MaxInt32
	}
	for _, po := range g.POs() {
		if g.IsAnd(po.Lit.Node()) {
			required[po.Lit.Node()] = maxDepth
		}
	}
	// Reverse topological propagation over the current cover.
	for node := uint32(n) - 1; node >= 1; node-- {
		if !g.IsAnd(node) || !lm.best[node].valid || required[node] == math.MaxInt32 {
			continue
		}
		c := &lm.sets[node][lm.best[node].cutIdx]
		for _, l := range c.Leaves {
			if g.IsAnd(l) && required[node]-1 < required[l] {
				required[l] = required[node] - 1
			}
		}
	}
	return required
}

// recoveryRounds runs rounds 2..lm.rounds after the depth pass: extra cuts
// join the lists, the required-depth target is frozen from the round-1
// depth scaled by the delay factor, and each round re-selects by area flow
// with load estimates refreshed from the previous cover; the final round
// adds an exact-area (ref/deref) refinement. Every pass is a sequential
// sweep, so multi-round results stay byte-identical across worker counts
// and arena pools.
func (lm *lutMapping) recoveryRounds(round1Cuts, enumPeak int) []RoundStat {
	stats := make([]RoundStat, 0, lm.rounds)
	luts, depth := lm.coverStats()
	stats = append(stats, RoundStat{
		Round: 1, Mode: "depth", LUTs: luts, Depth: depth,
		CutsConsidered: round1Cuts, PeakCuts: enumPeak,
	})
	lm.appendExtras()
	target := int32(float64(depth) * lm.delayFactor)
	if target < depth {
		target = depth
	}
	for r := 2; r <= lm.rounds; r++ {
		lm.updateFanoutEst()
		required := lm.computeRequired(target)
		lm.passCuts = 0
		lm.selectPass(required)
		mode := "area-flow"
		if r == lm.rounds {
			required = lm.computeRequired(target)
			lm.exactAreaPass(required)
			mode = "area-flow+exact"
		}
		luts, depth = lm.coverStats()
		stats = append(stats, RoundStat{
			Round: r, Mode: mode, LUTs: luts, Depth: depth,
			CutsConsidered: lm.passCuts, PeakCuts: lm.passCuts,
		})
	}
	return stats
}

// appendExtras merges the recovery-only cut lists into lm.sets, once.
func (lm *lutMapping) appendExtras() {
	for n, ex := range lm.extras {
		if len(ex) > 0 {
			lm.sets[n] = append(lm.sets[n], ex...)
		}
	}
	lm.extras = nil
}

// coverNodes returns the current cover's AND nodes in topological (id)
// order and refreshes lm.refs with the cover's reference counts (PO
// references included). Nodes with no valid choice are treated as leaves.
func (lm *lutMapping) coverNodes() []uint32 {
	g := lm.g
	for i := range lm.refs {
		lm.refs[i] = 0
	}
	needed := make([]bool, g.NumNodes())
	var stack []uint32
	for _, po := range g.POs() {
		n := po.Lit.Node()
		lm.refs[n]++
		if g.IsAnd(n) && !needed[n] {
			needed[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !lm.best[n].valid {
			continue
		}
		c := &lm.sets[n][lm.best[n].cutIdx]
		for _, l := range c.Leaves {
			lm.refs[l]++
			if g.IsAnd(l) && !needed[l] {
				needed[l] = true
				stack = append(stack, l)
			}
		}
	}
	var order []uint32
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if needed[n] {
			order = append(order, n)
		}
	}
	return order
}

// coverStats returns the current cover's LUT count and depth.
func (lm *lutMapping) coverStats() (int, int32) {
	g := lm.g
	cover := lm.coverNodes()
	finalDepth := make([]int32, g.NumNodes())
	var maxDepth int32
	for _, n := range cover {
		if !lm.best[n].valid {
			continue
		}
		c := &lm.sets[n][lm.best[n].cutIdx]
		var d int32
		for _, l := range c.Leaves {
			if g.IsAnd(l) && finalDepth[l] > d {
				d = finalDepth[l]
			}
		}
		finalDepth[n] = d + 1
		if finalDepth[n] > maxDepth {
			maxDepth = finalDepth[n]
		}
	}
	return len(cover), maxDepth
}

// updateFanoutEst replaces covered nodes' structural load estimates with
// the previous round's cover reference counts (the area-flow iteration);
// uncovered nodes keep their structural estimate.
func (lm *lutMapping) updateFanoutEst() {
	lm.coverNodes()
	for n := uint32(1); n < uint32(lm.g.NumNodes()); n++ {
		if lm.g.IsAnd(n) && lm.refs[n] > 0 {
			lm.fanoutEst[n] = float64(lm.refs[n])
		}
	}
}

// refCut recursively references the cone of choosing cut ci at node,
// returning the number of LUTs newly activated (the exact-area "ref").
func (lm *lutMapping) refCut(node uint32, ci int) int {
	area := 1
	c := &lm.sets[node][ci]
	for _, l := range c.Leaves {
		if !lm.g.IsAnd(l) {
			continue
		}
		lm.refs[l]++
		if lm.refs[l] == 1 && lm.best[l].valid {
			area += lm.refCut(l, lm.best[l].cutIdx)
		}
	}
	return area
}

// derefCut undoes refCut, returning the number of LUTs deactivated.
func (lm *lutMapping) derefCut(node uint32, ci int) int {
	area := 1
	c := &lm.sets[node][ci]
	for _, l := range c.Leaves {
		if !lm.g.IsAnd(l) {
			continue
		}
		lm.refs[l]--
		if lm.refs[l] == 0 && lm.best[l].valid {
			area += lm.derefCut(l, lm.best[l].cutIdx)
		}
	}
	return area
}

// exactAreaPass re-selects covered nodes minimising exact local area (the
// LUTs freed if the node's cone were removed), subject to required depths —
// the LUT analogue of the ASIC mapper's exact-area refinement.
func (lm *lutMapping) exactAreaPass(required []int32) {
	cover := lm.coverNodes()
	for _, node := range cover {
		if lm.refs[node] == 0 || !lm.best[node].valid {
			continue
		}
		cur := lm.best[node].cutIdx
		lm.derefCut(node, cur)
		bestIdx := cur
		bestArea := lm.refCut(node, cur)
		lm.derefCut(node, cur)
		bestDepth, _ := lm.evalCut(&lm.sets[node][cur])
		for ci := range lm.sets[node] {
			c := &lm.sets[node][ci]
			if containsLeaf(c, node) {
				continue
			}
			lm.passCuts++
			d, _ := lm.evalCut(c)
			if d > required[node] {
				continue
			}
			area := lm.refCut(node, ci)
			lm.derefCut(node, ci)
			if area < bestArea || (area == bestArea && d < bestDepth) {
				bestArea, bestDepth, bestIdx = area, d, ci
			}
		}
		lm.refCut(node, bestIdx)
		lm.best[node] = lutChoice{cutIdx: bestIdx, valid: true}
		lm.depth[node] = bestDepth
	}
}

func nodeDepth(g *aig.AIG, depth []int32, n uint32) int32 {
	if g.IsAnd(n) {
		return depth[n]
	}
	return 0
}

func containsLeaf(c *cuts.Cut, n uint32) bool {
	for _, l := range c.Leaves {
		if l == n {
			return true
		}
	}
	return false
}

// Simulate evaluates the LUT network on 64 packed input patterns and
// returns one word per PO — used for equivalence checking against the
// subject AIG.
func (r *Result) Simulate(piValues []uint64) []uint64 {
	g := r.g
	if len(piValues) != g.NumPIs() {
		panic(fmt.Sprintf("lutmap: Simulate needs %d PI words, got %d", g.NumPIs(), len(piValues)))
	}
	vals := make([]uint64, g.NumNodes())
	for i, pi := range g.PIs() {
		vals[pi] = piValues[i]
	}
	for _, lut := range r.LUTs {
		var out uint64
		numM := 1 << uint(len(lut.Leaves))
		for m := 0; m < numM; m++ {
			if !lut.TT.Eval(m) {
				continue
			}
			term := ^uint64(0)
			for i, l := range lut.Leaves {
				v := vals[l]
				if m>>uint(i)&1 == 0 {
					v = ^v
				}
				term &= v
			}
			out |= term
		}
		vals[lut.Root] = out
	}
	outs := make([]uint64, g.NumPOs())
	for i, po := range g.POs() {
		v := vals[po.Lit.Node()]
		if po.Lit.IsCompl() {
			v = ^v
		}
		outs[i] = v
	}
	return outs
}

// EquivalentTo checks the LUT network against the subject AIG on random
// patterns.
func (r *Result) EquivalentTo(g *aig.AIG, rounds int, rng *rand.Rand) error {
	ins := make([]uint64, g.NumPIs())
	for round := 0; round < rounds; round++ {
		for i := range ins {
			ins[i] = rng.Uint64()
		}
		want := g.Simulate(ins)
		got := r.Simulate(ins)
		for i := range want {
			if want[i] != got[i] {
				return fmt.Errorf("lutmap: PO %d differs from AIG", i)
			}
		}
	}
	return nil
}
