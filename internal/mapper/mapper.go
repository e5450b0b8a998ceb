// Package mapper implements an ABC-style standard-cell technology mapper
// over AIG subject graphs: priority-cuts enumeration (delegated to the cuts
// package and its pluggable policy), NPN Boolean matching against a cell
// library, delay-optimal cover selection, and two area-recovery passes
// (global area flow and exact local area), mirroring the mapper of
// Chatterjee et al. that the paper modifies.
//
// The cut sorting/filtering policy is the only lever the SLAP experiments
// move; everything downstream of the cut lists (matching, arrival-time
// computation, cover selection, area recovery) is identical across flows,
// exactly as in the paper's framework.
package mapper

import (
	"math"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/netlist"
)

// Options configures a mapping run.
type Options struct {
	// Library is the target standard-cell library (required).
	Library *library.Library
	// Policy is the cut sorting/filtering policy used during enumeration;
	// nil enumerates exhaustively (subject to MergeCap).
	Policy cuts.Policy
	// MergeCap bounds per-node cut lists during enumeration (0 = default).
	MergeCap int
	// NoAreaRecovery disables the area-flow and exact-area passes,
	// producing the pure delay-optimal cover.
	NoAreaRecovery bool
	// MaxFanout bounds net fanout in the final netlist: higher-fanout nets
	// are split with balanced buffer trees (the standard post-mapping
	// buffering step), and the mapper's load estimates are capped to match.
	// Zero means DefaultMaxFanout; negative disables buffering.
	MaxFanout int
	// Workers bounds cut-enumeration parallelism: 0 = one worker per CPU
	// core, 1 = sequential. Parallel and sequential enumeration produce
	// identical cut sets (see cuts.Enumerator.Workers).
	Workers int
	// Pool, when set, lets MapStream check cut-arena storage in and out
	// across runs of the same graph shape.
	Pool *cuts.Pool
	// CaptureCuts, when set, observes every AND node's finalised
	// post-policy cut list exactly once, before the enumerator retires its
	// storage — the hook must copy anything it keeps. Invoked from a single
	// goroutine. Snapshot.Capture fits this hook to record an ECO baseline.
	CaptureCuts func(n uint32, cs []cuts.Cut)
	// Rounds is the total number of selection rounds. Values <= 1 keep the
	// classic schedule (delay pass + the two recovery passes unless
	// NoAreaRecovery). Values > 1 run the multi-round engine: round 1 is
	// the delay-optimal pass, rounds 2..Rounds re-select the cover by area
	// flow under required times frozen from the round-1 delay (scaled by
	// DelayFactor), with an exact-area refinement on the final round.
	// NoAreaRecovery forces single-round behaviour.
	Rounds int
	// DelayFactor scales the round-1 delay into the required-time target of
	// the recovery rounds: 1.0 (and anything below, including the zero
	// value) pins the round-1 optimum, larger values trade slack for area.
	DelayFactor float64
	// Choices exposes functional equivalence classes to cut enumeration so
	// matching sees the union of each class's structural variants (see
	// cuts.ChoiceSource and internal/choice).
	Choices cuts.ChoiceSource
}

// DefaultMaxFanout is the post-mapping fanout bound.
const DefaultMaxFanout = 16

// Result is the outcome of a mapping run.
type Result struct {
	// Netlist is the mapped gate-level netlist.
	Netlist *netlist.Netlist
	// Area is the netlist area in µm².
	Area float64
	// Delay is the STA circuit delay in ps.
	Delay float64
	// CutsConsidered counts the cuts exposed to Boolean matching — the
	// paper's "Cuts Used" memory-footprint metric.
	CutsConsidered int
	// PeakCuts is the maximum number of simultaneously live cuts during
	// enumeration: the widest live level window.
	PeakCuts int
	// MatchAttempts counts (cut, gate) pairs evaluated.
	MatchAttempts int
	// PolicyName records which policy produced the cut lists.
	PolicyName string
	// EstimatedDelay is the mapper's internal arrival-time estimate of the
	// chosen cover (computed with subject-graph fanout loads); Delay is the
	// realised STA value on the final netlist.
	EstimatedDelay float64
	// Cover lists the chosen (node, cut) pairs of the final cover — the
	// "cuts used to deliver the mapping" that become training datapoints in
	// the SLAP data-generation flow.
	Cover []CoverEntry
	// RoundStats records per-round QoR when the multi-round engine ran
	// (Options.Rounds > 1); nil for the classic schedule. Entry 0 is the
	// delay round, whose CutsConsidered/PeakCuts equal the single-pass
	// numbers; CutsConsidered and PeakCuts above aggregate across rounds
	// (sum and max respectively).
	RoundStats []RoundStat
}

// RoundStat is the per-round QoR and cost record of one multi-round pass.
type RoundStat struct {
	// Round is 1-based; round 1 is always the delay-optimal pass.
	Round int
	// Mode names the selection goal: "delay", "area-flow" or
	// "area-flow+exact" (final round).
	Mode string
	// EstArea is the summed cell area of the round's cover (polarity
	// inverters included, PO buffering excluded).
	EstArea float64
	// EstDelay is the mapper's arrival-time estimate after the round.
	EstDelay float64
	// CutsConsidered counts cuts exposed to matching this round: the full
	// enumeration total for round 1, matchable candidates examined for
	// recovery rounds.
	CutsConsidered int
	// PeakCuts is the enumeration peak for round 1 and the live matchable
	// candidate count for recovery rounds.
	PeakCuts int
	// MatchAttempts counts (cut, gate) pairs evaluated this round.
	MatchAttempts int
}

// CoverEntry is one selected cut of the final cover.
type CoverEntry struct {
	// Node is the subject-graph root node.
	Node uint32
	// Cut is the selected cut of that node.
	Cut cuts.Cut
}

// ADP returns the area-delay product.
func (r *Result) ADP() float64 { return r.Area * r.Delay }

// chosen captures the selected match of one node.
type chosen struct {
	cutIdx  int
	match   library.Match
	valid   bool
	arrival float64
	flow    float64
}

type mapping struct {
	g    *aig.AIG
	lib  *library.Library
	sets [][]cuts.Cut

	best      []chosen
	arrival   []float64
	flow      []float64
	required  []float64
	refs      []int32
	fanoutEst []float64

	maxFanout     int
	matchAttempts int

	// Multi-round state (rounds <= 1 leaves all of it inert).
	rounds      int
	delayFactor float64
	extras      [][]cuts.Cut
	passCuts    int
	// flowRef, when non-nil, overrides fanoutEst as the area-flow divisor:
	// the recovery rounds refresh it from the previous cover's reference
	// counts. The delay model (gate loads in evalMatch/computeRequiredAt)
	// always keeps the structural fanoutEst, so round-1 required times stay
	// valid across every recovery round.
	flowRef []float64
}

// configureRounds installs the multi-round knobs from Options.
func (m *mapping) configureRounds(opt *Options) {
	m.rounds = opt.Rounds
	if opt.NoAreaRecovery {
		m.rounds = 1
	}
	m.delayFactor = opt.DelayFactor
	if m.delayFactor < 1 {
		m.delayFactor = 1
	}
}

// newMapping builds the per-node selection state. m.sets is left for the
// caller to install.
func newMapping(g *aig.AIG, lib *library.Library, maxFanout int) *mapping {
	if maxFanout == 0 {
		maxFanout = DefaultMaxFanout
	}
	m := &mapping{g: g, lib: lib, maxFanout: maxFanout}
	n := g.NumNodes()
	m.best = make([]chosen, n)
	m.arrival = make([]float64, n)
	m.flow = make([]float64, n)
	m.required = make([]float64, n)
	m.refs = make([]int32, n)
	m.fanoutEst = make([]float64, n)
	for i := uint32(0); i < uint32(n); i++ {
		fo := float64(g.Fanout(i))
		if fo < 1 {
			fo = 1
		}
		// Loads beyond the fanout bound will be buffered away, so the
		// arrival estimates saturate there too.
		if maxFanout > 0 && fo > float64(maxFanout) {
			fo = float64(maxFanout)
		}
		m.fanoutEst[i] = fo
	}
	return m
}

// finish runs everything downstream of the delay pass — area recovery,
// netlist construction, buffering, cover extraction and STA — for
// Stream.Finish, whose delay pass happened incrementally inside the
// wavefront.
func (m *mapping) finish(noAreaRecovery bool, policyName string, cutsConsidered, peakCuts int) (*Result, error) {
	var roundStats []RoundStat
	switch {
	case m.rounds > 1:
		roundStats = m.recoveryRounds(cutsConsidered, peakCuts)
		cutsConsidered = 0
		for _, rs := range roundStats {
			cutsConsidered += rs.CutsConsidered
			if rs.PeakCuts > peakCuts {
				peakCuts = rs.PeakCuts
			}
		}
	case !noAreaRecovery:
		// Classic schedule: one area-flow pass and one exact-area pass
		// under required times from the delay-optimal cover.
		m.computeRequired()
		m.selectAll(selectAreaFlow)
		m.computeRequired()
		m.exactAreaPass()
	}

	nl, err := m.buildNetlist()
	if err != nil {
		return nil, err
	}
	if m.maxFanout > 0 {
		if buf := netlist.BufferCell(m.lib); buf != nil {
			nl = nl.InsertBuffers(buf, m.maxFanout)
		}
	}
	var cover []CoverEntry
	for _, n := range m.coverNodes() {
		if b := &m.best[n]; b.valid {
			cover = append(cover, CoverEntry{Node: n, Cut: m.sets[n][b.cutIdx]})
		}
	}
	t := nl.STA()
	return &Result{
		Netlist:        nl,
		Area:           nl.Area(),
		Delay:          t.Delay,
		CutsConsidered: cutsConsidered,
		MatchAttempts:  m.matchAttempts,
		PolicyName:     policyName,
		EstimatedDelay: m.globalDelay(),
		PeakCuts:       peakCuts,
		Cover:          cover,
		RoundStats:     roundStats,
	}, nil
}

// recoveryRounds runs rounds 2..m.rounds after the delay pass: recovery-only
// extra cuts join the lists, required times are frozen from the round-1
// delay scaled by the delay factor, and each round re-selects the cover by
// area flow with load estimates refreshed from the previous round's cover —
// the final round adds an exact-area refinement. Every pass is a sequential
// sweep over the retained cut lists, so results are byte-identical for any
// worker count or arena pool: parallelism only ever touched enumeration,
// which is already finished.
func (m *mapping) recoveryRounds(round1Cuts, enumPeak int) []RoundStat {
	stats := make([]RoundStat, 0, m.rounds)
	stats = append(stats, RoundStat{
		Round: 1, Mode: "delay",
		EstArea: m.coverArea(), EstDelay: m.globalDelay(),
		CutsConsidered: round1Cuts, PeakCuts: enumPeak,
		MatchAttempts: m.matchAttempts,
	})
	m.appendExtras()
	target := m.globalDelay() * m.delayFactor
	for r := 2; r <= m.rounds; r++ {
		m.updateFlowRefs()
		m.computeRequiredAt(target)
		m.passCuts = 0
		prevAttempts := m.matchAttempts
		m.selectAll(selectAreaFlow)
		mode := "area-flow"
		if r == m.rounds {
			m.computeRequiredAt(target)
			m.exactAreaPass()
			mode = "area-flow+exact"
		}
		stats = append(stats, RoundStat{
			Round: r, Mode: mode,
			EstArea: m.coverArea(), EstDelay: m.globalDelay(),
			CutsConsidered: m.passCuts, PeakCuts: m.passCuts,
			MatchAttempts: m.matchAttempts - prevAttempts,
		})
	}
	return stats
}

// coverArea sums the matched cell area of the current cover (polarity
// inverters included; PO buffering happens later and is excluded).
func (m *mapping) coverArea() float64 {
	area := 0.0
	for _, n := range m.coverNodes() {
		if b := &m.best[n]; b.valid {
			area += m.matchArea(&b.match)
		}
	}
	return area
}

// appendExtras merges the recovery-only cut lists into m.sets, once.
func (m *mapping) appendExtras() {
	for n, ex := range m.extras {
		if len(ex) > 0 {
			m.sets[n] = append(m.sets[n], ex...)
		}
	}
	m.extras = nil
}

// updateFlowRefs refreshes the area-flow divisors from the previous
// round's cover reference counts — the standard area-flow iteration: flow
// divisors converge toward the sharing the cover actually realises.
// Uncovered nodes keep their structural estimate. Only the flow divisor
// moves; gate loads (and with them every arrival and required time) keep
// the structural fanoutEst, so the round-1 delay target stays enforceable.
func (m *mapping) updateFlowRefs() {
	m.coverNodes() // refreshes m.refs
	if m.flowRef == nil {
		m.flowRef = make([]float64, m.g.NumNodes())
		copy(m.flowRef, m.fanoutEst)
	}
	for n := uint32(1); n < uint32(m.g.NumNodes()); n++ {
		if !m.g.IsAnd(n) {
			continue
		}
		if r := m.refs[n]; r > 0 {
			m.flowRef[n] = float64(r)
		}
	}
}

// faninCut builds the elementary cut {fanin0, fanin1} of an AND node.
func (m *mapping) faninCut(n uint32) cuts.Cut {
	f0, f1 := m.g.Fanins(n)
	e := &cuts.Enumerator{G: m.g}
	return e.MakeCut(n, orderedPair(f0.Node(), f1.Node()))
}

func orderedPair(a, b uint32) []uint32 {
	if a < b {
		return []uint32{a, b}
	}
	return []uint32{b, a}
}

func containsLeaf(c *cuts.Cut, n uint32) bool {
	for _, l := range c.Leaves {
		if l == n {
			return true
		}
	}
	return false
}

// selectMode distinguishes the optimisation goal of a selection pass.
type selectMode int

const (
	selectDelay selectMode = iota
	selectAreaFlow
)

// selectAll visits every AND node in topological order and picks the best
// match for the pass's goal. Delay passes minimise (arrival, flow); area
// passes minimise (flow, arrival) subject to the required time.
func (m *mapping) selectAll(mode selectMode) {
	g := m.g
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		bestC := chosen{}
		for ci := range m.sets[n] {
			c := &m.sets[n][ci]
			if containsLeaf(c, n) {
				continue
			}
			matches := m.lib.Matches(c.TT)
			if len(matches) > 0 {
				m.passCuts++
			}
			for _, match := range matches {
				m.matchAttempts++
				arr, flw := m.evalMatch(n, c, &match)
				cand := chosen{cutIdx: ci, match: match, valid: true, arrival: arr, flow: flw}
				if !bestC.valid || better(mode, &cand, &bestC, m.required[n]) {
					bestC = cand
				}
			}
		}
		if !bestC.valid {
			// No cut of this node matches the library at all; it can only
			// appear inside larger cuts. Give it an effectively infinite
			// cost so no cover roots here.
			bestC = chosen{arrival: math.Inf(1), flow: math.Inf(1)}
		}
		m.best[n] = bestC
		m.arrival[n] = bestC.arrival
		m.flow[n] = bestC.flow
	}
}

// better reports whether a should replace b for the given mode.
func better(mode selectMode, a, b *chosen, required float64) bool {
	const eps = 1e-9
	switch mode {
	case selectDelay:
		if a.arrival < b.arrival-eps {
			return true
		}
		if a.arrival > b.arrival+eps {
			return false
		}
		return a.flow < b.flow-eps
	default: // selectAreaFlow
		aOK := a.arrival <= required+eps
		bOK := b.arrival <= required+eps
		if aOK != bOK {
			return aOK
		}
		if !aOK {
			// Neither meets timing: fall back to delay minimisation.
			return a.arrival < b.arrival-eps
		}
		if a.flow < b.flow-eps {
			return true
		}
		if a.flow > b.flow+eps {
			return false
		}
		return a.arrival < b.arrival-eps
	}
}

// evalMatch computes the arrival time and area flow of binding `match` to
// cut c at node n, charging inverters for negated pins/outputs.
func (m *mapping) evalMatch(n uint32, c *cuts.Cut, match *library.Match) (float64, float64) {
	g := match.Gate
	invD := m.lib.Inv.PinDelay(1)
	load := int32(m.fanoutEst[n])
	gateLoad := load
	if match.OutNeg {
		gateLoad = 1 // the gate drives only the output inverter
	}
	d := g.PinDelay(gateLoad)
	arr := 0.0
	area := g.Area
	flowSum := 0.0
	for i := 0; i < g.NumPins; i++ {
		leaf := c.Leaves[match.Perm[i]]
		a := m.leafArrival(leaf)
		f := m.leafFlow(leaf)
		if match.Phase>>uint(i)&1 == 1 {
			a += invD
			area += m.lib.Inv.Area
		}
		if a+d > arr {
			arr = a + d
		}
		flowSum += f
	}
	if match.OutNeg {
		arr += m.lib.Inv.PinDelay(load)
		area += m.lib.Inv.Area
	}
	flow := (area + flowSum) / m.flowDiv(n)
	return arr, flow
}

// flowDiv is the area-flow divisor of n: the structural fanout estimate,
// or the recovery rounds' cover-derived reference count once installed.
func (m *mapping) flowDiv(n uint32) float64 {
	if m.flowRef != nil {
		return m.flowRef[n]
	}
	return m.fanoutEst[n]
}

func (m *mapping) leafArrival(leaf uint32) float64 {
	if m.g.IsAnd(leaf) {
		return m.arrival[leaf]
	}
	return 0 // PIs and constants arrive at time zero
}

func (m *mapping) leafFlow(leaf uint32) float64 {
	if m.g.IsAnd(leaf) {
		return m.flow[leaf]
	}
	return 0
}

// globalDelay returns the worst PO arrival, charging PO polarity inverters.
func (m *mapping) globalDelay() float64 {
	invD := m.lib.Inv.PinDelay(1)
	worst := 0.0
	for _, po := range m.g.POs() {
		n := po.Lit.Node()
		a := m.leafArrival(n)
		if po.Lit.IsCompl() && !m.g.IsConst(n) {
			a += invD
		}
		if a > worst {
			worst = a
		}
	}
	return worst
}

// computeRequired propagates required times backwards over the current
// cover with the current global delay as the PO requirement.
func (m *mapping) computeRequired() {
	m.computeRequiredAt(m.globalDelay())
}

// computeRequiredAt is computeRequired with an explicit PO requirement
// (the multi-round engine freezes it from the round-1 delay). The current
// global delay still floors the target so the constraint stays feasible.
// Nodes outside the cover get +inf (unconstrained).
func (m *mapping) computeRequiredAt(target float64) {
	g := m.g
	invD := m.lib.Inv.PinDelay(1)
	d := target
	if gd := m.globalDelay(); gd > d {
		d = gd
	}
	for i := range m.required {
		m.required[i] = math.Inf(1)
	}
	inCover := m.coverNodes()
	for _, po := range g.POs() {
		n := po.Lit.Node()
		r := d
		if po.Lit.IsCompl() && !g.IsConst(n) {
			r -= invD
		}
		if r < m.required[n] {
			m.required[n] = r
		}
	}
	// Reverse topological order.
	for idx := len(inCover) - 1; idx >= 0; idx-- {
		n := inCover[idx]
		b := &m.best[n]
		if !b.valid {
			continue
		}
		c := &m.sets[n][b.cutIdx]
		gate := b.match.Gate
		load := int32(m.fanoutEst[n])
		gateLoad := load
		if b.match.OutNeg {
			gateLoad = 1
		}
		pd := gate.PinDelay(gateLoad)
		req := m.required[n]
		if b.match.OutNeg {
			req -= m.lib.Inv.PinDelay(load)
		}
		for i := 0; i < gate.NumPins; i++ {
			leaf := c.Leaves[b.match.Perm[i]]
			r := req - pd
			if b.match.Phase>>uint(i)&1 == 1 {
				r -= invD
			}
			if r < m.required[leaf] {
				m.required[leaf] = r
			}
		}
	}
}

// coverNodes returns the AND nodes of the current cover in topological
// order, and refreshes m.refs to the cover's reference counts.
func (m *mapping) coverNodes() []uint32 {
	g := m.g
	for i := range m.refs {
		m.refs[i] = 0
	}
	needed := make([]bool, g.NumNodes())
	var stack []uint32
	for _, po := range g.POs() {
		n := po.Lit.Node()
		m.refs[n]++
		if g.IsAnd(n) && !needed[n] {
			needed[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := &m.best[n]
		if !b.valid {
			continue
		}
		c := &m.sets[n][b.cutIdx]
		gate := b.match.Gate
		for i := 0; i < gate.NumPins; i++ {
			leaf := c.Leaves[b.match.Perm[i]]
			m.refs[leaf]++
			if g.IsAnd(leaf) && !needed[leaf] {
				needed[leaf] = true
				stack = append(stack, leaf)
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

// matchArea returns the cell area of a match including polarity inverters.
func (m *mapping) matchArea(match *library.Match) float64 {
	a := match.Gate.Area
	for i := 0; i < match.Gate.NumPins; i++ {
		if match.Phase>>uint(i)&1 == 1 {
			a += m.lib.Inv.Area
		}
	}
	if match.OutNeg {
		a += m.lib.Inv.Area
	}
	return a
}

// refMatch recursively references the cone of a match, returning the area
// newly activated (the exact-area "ref" operation).
func (m *mapping) refMatch(n uint32, b *chosen) float64 {
	c := &m.sets[n][b.cutIdx]
	area := m.matchArea(&b.match)
	gate := b.match.Gate
	for i := 0; i < gate.NumPins; i++ {
		leaf := c.Leaves[b.match.Perm[i]]
		m.refs[leaf]++
		if m.refs[leaf] == 1 && m.g.IsAnd(leaf) && m.best[leaf].valid {
			area += m.refMatch(leaf, &m.best[leaf])
		}
	}
	return area
}

// derefMatch undoes refMatch, returning the area deactivated.
func (m *mapping) derefMatch(n uint32, b *chosen) float64 {
	c := &m.sets[n][b.cutIdx]
	area := m.matchArea(&b.match)
	gate := b.match.Gate
	for i := 0; i < gate.NumPins; i++ {
		leaf := c.Leaves[b.match.Perm[i]]
		m.refs[leaf]--
		if m.refs[leaf] == 0 && m.g.IsAnd(leaf) && m.best[leaf].valid {
			area += m.derefMatch(leaf, &m.best[leaf])
		}
	}
	return area
}

// exactAreaPass re-selects matches for covered nodes minimising the exact
// local area (the area that would be freed if the node's cone were
// removed), subject to required times.
func (m *mapping) exactAreaPass() {
	const eps = 1e-9
	cover := m.coverNodes()
	for _, n := range cover {
		if m.refs[n] == 0 || !m.best[n].valid {
			continue
		}
		cur := m.best[n]
		m.derefMatch(n, &cur)
		bestC := cur
		bestArea := m.refMatch(n, &cur)
		m.derefMatch(n, &cur)
		for ci := range m.sets[n] {
			c := &m.sets[n][ci]
			if containsLeaf(c, n) {
				continue
			}
			matches := m.lib.Matches(c.TT)
			if len(matches) > 0 {
				m.passCuts++
			}
			for _, match := range matches {
				arr, flw := m.evalMatch(n, c, &match)
				if arr > m.required[n]+eps {
					continue
				}
				cand := chosen{cutIdx: ci, match: match, valid: true, arrival: arr, flow: flw}
				area := m.refMatch(n, &cand)
				m.derefMatch(n, &cand)
				if area < bestArea-eps || (area < bestArea+eps && arr < bestC.arrival-eps) {
					bestArea = area
					bestC = cand
				}
			}
		}
		m.refMatch(n, &bestC)
		m.best[n] = bestC
		m.arrival[n] = bestC.arrival
		m.flow[n] = bestC.flow
	}
}
