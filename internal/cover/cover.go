// Package cover is the cover-selection engine shared by both mapping
// targets. It consumes each node's finalised cut list as the enumeration
// wavefront produces it, selects a delay-optimal cover on the spot, and
// then runs the area-recovery schedule over the retained cuts: area flow
// and exact area under required times, either once (the classic schedule)
// or as a series of rounds with refreshed flow divisors.
//
// What a target is enters only through its cost Model: which
// implementations a cut has (library gates for standard cells, the cut
// itself for LUTs), what one costs in arrival time and area, and which
// leaves it reads. Everything else — retention, the fanin-cut fallback,
// required-time propagation, cover walks, reference counting and the round
// loop — exists once, here.
package cover

import (
	"fmt"
	"math"

	"slap/internal/aig"
	"slap/internal/cuts"
)

// Model is the cost model of one mapping target over implementation type
// I (a library match for standard cells, an empty struct for LUTs). The
// arrival and flow slices it reads are indexed by node and hold zero for
// PIs and constants.
type Model[I any] interface {
	// Impls returns the implementations of cut c. A cut without one is not
	// retained.
	Impls(c *cuts.Cut) []I
	// Eval returns the arrival time of implementing a node of structural
	// load `load` by im over c, and its area-flow numerator: the
	// implementation's area plus the flows of the leaves it reads.
	Eval(c *cuts.Cut, im I, load float64, arrival, flow []float64) (arr, flowNum float64)
	// Inputs returns how many leaves im reads; Input returns the i-th.
	Inputs(c *cuts.Cut, im I) int
	Input(c *cuts.Cut, im I, i int) uint32
	// Area is the area of one implementation.
	Area(im I) float64
	// Required returns the required time im passes to its i-th input when
	// its output, of structural load `load`, is required at req.
	Required(c *cuts.Cut, im I, load, req float64, i int) float64
	// Traits returns the target's fixed schedule parameters.
	Traits() Traits
}

// Traits are the per-target parameters of the schedule. Each one is a
// difference between the two targets that the golden digests pin, so
// unifying one changes recorded outputs.
type Traits struct {
	// FirstMode names round 1: "delay" or "depth".
	FirstMode string
	// LoadCap caps the structural load estimate (0 = uncapped).
	LoadCap int
	// FlowEps is the tolerance of flow comparisons in the select passes.
	FlowEps float64
	// POInv is the arrival added at a complemented primary output.
	POInv float64
	// FallbackCuts is what one fanin-cut fallback adds to CutsConsidered.
	FallbackCuts int
	// ClassicExact ends the classic schedule with an exact-area pass after
	// its area-flow pass.
	ClassicExact bool
	// WholeLevels truncates the recovery rounds' delay target to an
	// integer, falling back to the round-1 delay when the product leaves
	// the int32 range.
	WholeLevels bool
	// Rederive re-derives arrival times from the current cover where the
	// schedule would otherwise read the last select pass's values: for the
	// incumbent of the exact-area pass, and for a round's reported delay.
	Rederive bool
}

// Schedule configures the rounds.
type Schedule struct {
	// Rounds is the total number of selection rounds. Values <= 1 keep the
	// classic schedule (the delay pass, then area flow and — with
	// Traits.ClassicExact — exact area). Values > 1 run round 1 as the
	// delay pass and rounds 2..Rounds as area flow under required times
	// frozen at the round-1 delay times DelayFactor, with exact area added
	// to the last round.
	Rounds int
	// DelayFactor scales the round-1 delay into the recovery target;
	// values below 1 (including zero) pin the round-1 optimum.
	DelayFactor float64
	// NoAreaRecovery stops after the delay pass.
	NoAreaRecovery bool
}

// RoundStat is the QoR and cost record of one round.
type RoundStat struct {
	// Round is 1-based; round 1 is the delay (or depth) pass.
	Round int
	// Mode names the round's goal: Traits.FirstMode, "area-flow", or
	// "area-flow+exact" for the last round.
	Mode string
	// Area is the cover's summed implementation area: cell area with
	// polarity inverters (PO buffering excluded), or the LUT count.
	Area float64
	// Delay is the cover's delay estimate: arrival time in ps, or LUT
	// depth.
	Delay float64
	// CutsConsidered counts the cuts examined: the enumeration total for
	// round 1, the candidates with an implementation for later rounds.
	CutsConsidered int
	// PeakCuts is the enumeration peak for round 1 and the live candidate
	// count for later rounds.
	PeakCuts int
	// MatchAttempts counts the (cut, implementation) pairs evaluated.
	MatchAttempts int
}

// Outcome totals a finished run.
type Outcome struct {
	// Rounds holds one record per round when Schedule.Rounds > 1, nil for
	// the classic schedule.
	Rounds []RoundStat
	// CutsConsidered and PeakCuts aggregate over rounds (sum and max).
	CutsConsidered int
	PeakCuts       int
	// MatchAttempts counts every (cut, implementation) pair evaluated.
	MatchAttempts int
}

// leafChunk is the allocation granularity of the engine's durable leaf
// storage (uint32 leaves, so 16 KiB per chunk).
const leafChunk = 4096

// eps is the tolerance of arrival and area comparisons.
const eps = 1e-9

// choice is the selected implementation of one node.
type choice[I any] struct {
	impl  I
	cut   int32
	valid bool
}

// Engine is a cover selection in progress. Feed it every AND node's cut
// list through ConsumeNode in topological order (the streaming
// enumerator's level order is one), then call Run.
type Engine[I any] struct {
	g      *aig.AIG
	model  Model[I]
	traits Traits
	sched  Schedule

	sets   [][]cuts.Cut
	extras [][]cuts.Cut
	best   []choice[I]

	arrival  []float64
	flow     []float64
	required []float64
	refs     []int32
	// load is the structural load estimate that feeds the delay model; it
	// stays fixed, so round-1 required times remain valid in every round.
	load []float64
	// flowDiv, once the recovery rounds install it, replaces load as the
	// area-flow divisor with the previous cover's reference counts.
	flowDiv []float64

	leafArena []uint32
	enum      *cuts.Enumerator // builds fanin-cut fallbacks

	considered    int
	peak          int
	passCuts      int
	matchAttempts int

	// Scratch reused by cover walks.
	needed []bool
	stack  []uint32
	order  []uint32
	fresh  []float64
}

// New prepares a cover selection of g under model.
func New[I any](g *aig.AIG, model Model[I], sched Schedule) *Engine[I] {
	n := g.NumNodes()
	if sched.NoAreaRecovery {
		sched.Rounds = 1
	}
	if sched.DelayFactor < 1 {
		sched.DelayFactor = 1
	}
	e := &Engine[I]{
		g: g, model: model, traits: model.Traits(), sched: sched,
		sets:     make([][]cuts.Cut, n),
		best:     make([]choice[I], n),
		arrival:  make([]float64, n),
		flow:     make([]float64, n),
		required: make([]float64, n),
		refs:     make([]int32, n),
		load:     make([]float64, n),
		needed:   make([]bool, n),
	}
	for i := uint32(0); i < uint32(n); i++ {
		fo := float64(g.Fanout(i))
		if fo < 1 {
			fo = 1
		}
		// Loads beyond the cap are buffered away after mapping, so the
		// estimates saturate there too.
		if c := e.traits.LoadCap; c > 0 && fo > float64(c) {
			fo = float64(c)
		}
		e.load[i] = fo
	}
	return e
}

// Enumerate runs en's streaming enumeration into the engine: every node's
// list is consumed as soon as its level completes, after capture (when
// set) has seen it. With pool set, cut storage is checked out of it.
//
// When en.Policy is a cuts.LevelFilter, the filter runs on each completed
// level, and its kept lists are what capture and the engine see; the
// engine asks it for recovery pools when the schedule has more than one
// round. reused, when non-nil, holds a delta remap's clean lists (see
// Snapshot.Reuse): under a cone-local policy the enumerator installs them
// instead of merging those nodes, and under a filter enumeration runs in
// full (fanouts merge from the unfiltered lists) and only the filter is
// skipped.
func (e *Engine[I]) Enumerate(en *cuts.Enumerator, pool *cuts.Pool, capture func(uint32, []cuts.Cut), reused [][]cuts.Cut) error {
	lf, filtered := en.Policy.(cuts.LevelFilter)
	if filtered && reused != nil && e.sched.Rounds > 1 {
		return fmt.Errorf("%w: a snapshot keeps no recovery pools", ErrDeltaIneligible)
	}
	if pool != nil {
		en.Arena = pool.Get()
		defer pool.Put(en.Arena)
	}
	var filter func(nodes []uint32, sets, kept, extras [][]cuts.Cut) error
	var kept, extras [][]cuts.Cut
	if filtered {
		var done func()
		filter, done = lf.Begin(en.G)
		defer done()
		if kept = reused; kept == nil {
			kept = make([][]cuts.Cut, en.G.NumNodes())
		}
		if e.sched.Rounds > 1 {
			extras = make([][]cuts.Cut, en.G.NumNodes())
		}
	} else if reused != nil {
		en.Reuse = func(n uint32) []cuts.Cut { return reused[n] }
	}
	var dirty []uint32
	sink := func(_ int32, nodes []uint32, sets [][]cuts.Cut) error {
		lists := sets
		if filter != nil {
			todo := nodes
			if reused != nil {
				dirty = dirty[:0]
				for _, n := range nodes {
					if reused[n] == nil {
						dirty = append(dirty, n)
					}
				}
				todo = dirty
			}
			if err := filter(todo, sets, kept, extras); err != nil {
				return err
			}
			lists = kept
		}
		// Kept lists borrow the level's storage too: consume them before
		// the enumerator retires it.
		for _, n := range nodes {
			if capture != nil {
				capture(n, lists[n])
			}
			e.ConsumeNode(n, lists[n])
			if filter == nil {
				continue
			}
			kept[n] = nil
			if extras != nil && extras[n] != nil {
				e.ConsumeExtras(n, extras[n])
				extras[n] = nil
			}
		}
		return nil
	}
	res, err := en.RunStream(sink)
	if err != nil {
		return err
	}
	e.SetPeakCuts(res.PeakCuts)
	return nil
}

// SetPeakCuts records the enumerator's peak live-cut count.
func (e *Engine[I]) SetPeakCuts(peak int) { e.peak = peak }

// ConsumeNode ingests the finalised cut list of AND node n. The cuts are
// only borrowed (the enumerator may recycle them once this returns): those
// with an implementation are copied into engine-owned storage. Dropping
// the rest is exact, as they offer no candidate to any pass; so are
// self-referential cuts. A node left without a cut (a policy filtered
// every other away) gets its elementary fanin cut, as ABC always keeps
// it. The delay pass then selects n on the spot: every leaf sits at a
// strictly lower level, so its arrival and flow are already final.
func (e *Engine[I]) ConsumeNode(n uint32, cs []cuts.Cut) {
	e.considered += len(cs)
	kept := 0
	for i := range cs {
		if e.retains(n, &cs[i]) {
			kept++
		}
	}
	var list []cuts.Cut
	if kept > 0 {
		list = make([]cuts.Cut, 0, kept)
		for i := range cs {
			if e.retains(n, &cs[i]) {
				list = append(list, e.intern(&cs[i]))
			}
		}
	} else {
		if e.enum == nil {
			e.enum = &cuts.Enumerator{G: e.g}
		}
		f0, f1 := e.g.Fanins(n)
		a, b := f0.Node(), f1.Node()
		if a > b {
			a, b = b, a
		}
		list = []cuts.Cut{e.enum.MakeCut(n, []uint32{a, b})}
		e.considered += e.traits.FallbackCuts
	}
	e.sets[n] = list
	e.selectNode(n, false)
}

// ConsumeExtras ingests recovery-only cuts of node n: a wider pool that
// joins the node's list after round 1, so the delay round stays identical
// to a single-pass run. The cuts are borrowed as in ConsumeNode. No-op
// unless Schedule.Rounds > 1.
func (e *Engine[I]) ConsumeExtras(n uint32, cs []cuts.Cut) {
	if e.sched.Rounds <= 1 {
		return
	}
	var list []cuts.Cut
	for i := range cs {
		if e.retains(n, &cs[i]) {
			list = append(list, e.intern(&cs[i]))
		}
	}
	if list == nil {
		return
	}
	if e.extras == nil {
		e.extras = make([][]cuts.Cut, e.g.NumNodes())
	}
	e.extras[n] = list
}

// retains reports whether cut c of node n joins the engine's lists.
func (e *Engine[I]) retains(n uint32, c *cuts.Cut) bool {
	for _, l := range c.Leaves {
		if l == n {
			return false
		}
	}
	return len(e.model.Impls(c)) > 0
}

// intern copies c with its leaves moved into the engine's chunked storage.
func (e *Engine[I]) intern(c *cuts.Cut) cuts.Cut {
	ls := c.Leaves
	if len(e.leafArena)+len(ls) > cap(e.leafArena) {
		e.leafArena = make([]uint32, 0, max(leafChunk, len(ls)))
	}
	i := len(e.leafArena)
	e.leafArena = append(e.leafArena, ls...)
	cc := *c
	cc.Leaves = e.leafArena[i : i+len(ls) : i+len(ls)]
	return cc
}

// Run executes the area-recovery schedule after the delay pass. Every pass
// is a sequential sweep over the retained lists, so the outcome is the
// same for any enumeration worker count or arena pool.
func (e *Engine[I]) Run() Outcome {
	out := Outcome{CutsConsidered: e.considered, PeakCuts: e.peak}
	switch {
	case e.sched.Rounds > 1:
		out.Rounds = e.rounds()
		out.CutsConsidered = 0
		for _, rs := range out.Rounds {
			out.CutsConsidered += rs.CutsConsidered
			out.PeakCuts = max(out.PeakCuts, rs.PeakCuts)
		}
	case !e.sched.NoAreaRecovery:
		e.requiredAt(0)
		e.selectPass()
		if e.traits.ClassicExact {
			e.requiredAt(0)
			e.exactArea()
		}
	}
	out.MatchAttempts = e.matchAttempts
	return out
}

// rounds runs the multi-round schedule: the recovery-only cuts join the
// lists, required times are frozen at the round-1 delay scaled by the
// delay factor, and each round re-selects the cover by area flow with
// divisors refreshed from the previous cover; the last round adds exact
// area.
func (e *Engine[I]) rounds() []RoundStat {
	stats := make([]RoundStat, 0, e.sched.Rounds)
	area, delay := e.qor()
	stats = append(stats, RoundStat{
		Round: 1, Mode: e.traits.FirstMode, Area: area, Delay: delay,
		CutsConsidered: e.considered, PeakCuts: e.peak, MatchAttempts: e.matchAttempts,
	})
	for n, ex := range e.extras {
		if len(ex) > 0 {
			e.sets[n] = append(e.sets[n], ex...)
		}
	}
	e.extras = nil
	target := delay * e.sched.DelayFactor
	if e.traits.WholeLevels {
		// An out-of-range product converts to the int32 minimum and so
		// falls back to the round-1 depth.
		target = math.Max(float64(int32(target)), delay)
	}
	for r := 2; r <= e.sched.Rounds; r++ {
		e.refreshFlowDiv()
		e.requiredAt(target)
		e.passCuts = 0
		prevAttempts := e.matchAttempts
		e.selectPass()
		mode := "area-flow"
		if r == e.sched.Rounds {
			e.requiredAt(target)
			e.exactArea()
			mode = "area-flow+exact"
		}
		area, delay = e.qor()
		stats = append(stats, RoundStat{
			Round: r, Mode: mode, Area: area, Delay: delay,
			CutsConsidered: e.passCuts, PeakCuts: e.passCuts,
			MatchAttempts: e.matchAttempts - prevAttempts,
		})
	}
	return stats
}

// qor returns the current cover's reported area and delay.
func (e *Engine[I]) qor() (float64, float64) {
	area := 0.0
	for _, n := range e.Cover() {
		if b := &e.best[n]; b.valid {
			area += e.model.Area(b.impl)
		}
	}
	if e.traits.Rederive {
		return area, e.CoverDelay()
	}
	return area, e.GlobalDelay()
}

// refreshFlowDiv sets the area-flow divisor of every covered AND node to
// its reference count in the current cover, the standard area-flow
// iteration; uncovered nodes keep their last divisor.
func (e *Engine[I]) refreshFlowDiv() {
	e.Cover() // refreshes e.refs
	if e.flowDiv == nil {
		e.flowDiv = append([]float64(nil), e.load...)
	}
	for n := uint32(1); n < uint32(e.g.NumNodes()); n++ {
		if e.g.IsAnd(n) && e.refs[n] > 0 {
			e.flowDiv[n] = float64(e.refs[n])
		}
	}
}

// selectPass re-selects every AND node in topological order by area flow
// under the current required times.
func (e *Engine[I]) selectPass() {
	for n := uint32(1); n < uint32(e.g.NumNodes()); n++ {
		if e.g.IsAnd(n) {
			e.selectNode(n, true)
		}
	}
}

// selectNode picks n's best implementation: by (arrival, flow) in the
// delay pass, by (flow, arrival) among those meeting the required time in
// area passes.
func (e *Engine[I]) selectNode(n uint32, area bool) {
	list := e.sets[n]
	load, div, req := e.load[n], e.load[n], e.required[n]
	if e.flowDiv != nil {
		div = e.flowDiv[n]
	}
	var best choice[I]
	bestArr, bestFlow := math.Inf(1), math.Inf(1)
	for ci := range list {
		c := &list[ci]
		impls := e.model.Impls(c)
		if len(impls) > 0 {
			e.passCuts++
		}
		for k := range impls {
			e.matchAttempts++
			arr, num := e.model.Eval(c, impls[k], load, e.arrival, e.flow)
			flw := num / div
			if !best.valid || e.better(area, arr, flw, bestArr, bestFlow, req) {
				best = choice[I]{impl: impls[k], cut: int32(ci), valid: true}
				bestArr, bestFlow = arr, flw
			}
		}
	}
	// A node without any candidate can only appear inside larger cuts; its
	// infinite cost keeps every cover from rooting there.
	e.best[n] = best
	e.arrival[n] = bestArr
	e.flow[n] = bestFlow
}

// better reports whether candidate a should replace incumbent b. Area
// passes prefer meeting the required time, then flow, then arrival; when
// neither meets it they fall back to arrival alone.
func (e *Engine[I]) better(area bool, aArr, aFlow, bArr, bFlow, req float64) bool {
	fe := e.traits.FlowEps
	if !area {
		if aArr < bArr-eps {
			return true
		}
		if aArr > bArr+eps {
			return false
		}
		return aFlow < bFlow-fe
	}
	aOK, bOK := aArr <= req+eps, bArr <= req+eps
	if aOK != bOK {
		return aOK
	}
	if !aOK {
		return aArr < bArr-eps
	}
	if aFlow < bFlow-fe {
		return true
	}
	if aFlow > bFlow+fe {
		return false
	}
	return aArr < bArr-eps
}

// GlobalDelay returns the worst primary-output arrival of the current
// selection, charging Traits.POInv at complemented outputs.
func (e *Engine[I]) GlobalDelay() float64 {
	return e.worstPO(e.arrival)
}

// CoverDelay re-derives the arrival times of the current cover from its
// choices alone, in topological order, and returns the worst
// primary-output arrival.
func (e *Engine[I]) CoverDelay() float64 {
	if e.fresh == nil {
		e.fresh = make([]float64, e.g.NumNodes())
	}
	clear(e.fresh)
	for _, n := range e.Cover() {
		if b := &e.best[n]; b.valid {
			e.fresh[n], _ = e.model.Eval(&e.sets[n][b.cut], b.impl, e.load[n], e.fresh, e.flow)
		}
	}
	return e.worstPO(e.fresh)
}

func (e *Engine[I]) worstPO(arrival []float64) float64 {
	worst := 0.0
	for _, po := range e.g.POs() {
		n := po.Lit.Node()
		a := arrival[n]
		if po.Lit.IsCompl() && !e.g.IsConst(n) {
			a += e.traits.POInv
		}
		if a > worst {
			worst = a
		}
	}
	return worst
}

// requiredAt propagates required times backwards over the current cover,
// with the primary outputs required at target or at the current global
// delay, whichever is later (so the constraint stays feasible). Nodes
// outside the cover are unconstrained.
func (e *Engine[I]) requiredAt(target float64) {
	d := target
	if gd := e.GlobalDelay(); gd > d {
		d = gd
	}
	for i := range e.required {
		e.required[i] = math.Inf(1)
	}
	cover := e.Cover()
	for _, po := range e.g.POs() {
		n := po.Lit.Node()
		r := d
		if po.Lit.IsCompl() && !e.g.IsConst(n) {
			r -= e.traits.POInv
		}
		if r < e.required[n] {
			e.required[n] = r
		}
	}
	for idx := len(cover) - 1; idx >= 0; idx-- {
		n := cover[idx]
		b := &e.best[n]
		if !b.valid {
			continue
		}
		c := &e.sets[n][b.cut]
		for i, k := 0, e.model.Inputs(c, b.impl); i < k; i++ {
			leaf := e.model.Input(c, b.impl, i)
			if r := e.model.Required(c, b.impl, e.load[n], e.required[n], i); r < e.required[leaf] {
				e.required[leaf] = r
			}
		}
	}
}

// Cover returns the AND nodes of the current cover in topological order
// and refreshes the reference counts to the cover's. The slice is reused
// by the next call.
func (e *Engine[I]) Cover() []uint32 {
	g := e.g
	clear(e.refs)
	clear(e.needed)
	stack := e.stack[:0]
	for _, po := range g.POs() {
		n := po.Lit.Node()
		e.refs[n]++
		if g.IsAnd(n) && !e.needed[n] {
			e.needed[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := &e.best[n]
		if !b.valid {
			continue
		}
		c := &e.sets[n][b.cut]
		for i, k := 0, e.model.Inputs(c, b.impl); i < k; i++ {
			leaf := e.model.Input(c, b.impl, i)
			e.refs[leaf]++
			if g.IsAnd(leaf) && !e.needed[leaf] {
				e.needed[leaf] = true
				stack = append(stack, leaf)
			}
		}
	}
	e.stack = stack
	order := e.order[:0]
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if e.needed[n] {
			order = append(order, n)
		}
	}
	e.order = order
	return order
}

// Choice returns node n's selected cut and implementation; ok is false
// when n has none.
func (e *Engine[I]) Choice(n uint32) (c *cuts.Cut, im I, ok bool) {
	b := &e.best[n]
	if !b.valid {
		return nil, im, false
	}
	return &e.sets[n][b.cut], b.impl, true
}

// ref references the cone of choice b at node n and returns the area it
// newly activates (the exact-area "ref").
func (e *Engine[I]) ref(n uint32, b *choice[I]) float64 {
	c := &e.sets[n][b.cut]
	area := e.model.Area(b.impl)
	for i, k := 0, e.model.Inputs(c, b.impl); i < k; i++ {
		leaf := e.model.Input(c, b.impl, i)
		e.refs[leaf]++
		if e.refs[leaf] == 1 && e.g.IsAnd(leaf) && e.best[leaf].valid {
			area += e.ref(leaf, &e.best[leaf])
		}
	}
	return area
}

// deref undoes ref and returns the area it deactivates.
func (e *Engine[I]) deref(n uint32, b *choice[I]) float64 {
	c := &e.sets[n][b.cut]
	area := e.model.Area(b.impl)
	for i, k := 0, e.model.Inputs(c, b.impl); i < k; i++ {
		leaf := e.model.Input(c, b.impl, i)
		e.refs[leaf]--
		if e.refs[leaf] == 0 && e.g.IsAnd(leaf) && e.best[leaf].valid {
			area += e.deref(leaf, &e.best[leaf])
		}
	}
	return area
}

// exactArea re-selects every covered node for the least exact local area
// (the area its cone would free), subject to the required times.
func (e *Engine[I]) exactArea() {
	for _, n := range e.Cover() {
		if e.refs[n] == 0 || !e.best[n].valid {
			continue
		}
		cur := e.best[n]
		load, div := e.load[n], e.load[n]
		if e.flowDiv != nil {
			div = e.flowDiv[n]
		}
		e.deref(n, &cur)
		best, bestArea := cur, e.ref(n, &cur)
		e.deref(n, &cur)
		bestArr, bestFlow := e.arrival[n], e.flow[n]
		if e.traits.Rederive {
			arr, num := e.model.Eval(&e.sets[n][cur.cut], cur.impl, load, e.arrival, e.flow)
			bestArr, bestFlow = arr, num/div
		}
		list := e.sets[n]
		for ci := range list {
			c := &list[ci]
			impls := e.model.Impls(c)
			if len(impls) > 0 {
				e.passCuts++
			}
			for k := range impls {
				arr, num := e.model.Eval(c, impls[k], load, e.arrival, e.flow)
				if arr > e.required[n]+eps {
					continue
				}
				cand := choice[I]{impl: impls[k], cut: int32(ci), valid: true}
				area := e.ref(n, &cand)
				e.deref(n, &cand)
				if area < bestArea-eps || (area < bestArea+eps && arr < bestArr-eps) {
					best, bestArea = cand, area
					bestArr, bestFlow = arr, num/div
				}
			}
		}
		e.ref(n, &best)
		e.best[n] = best
		e.arrival[n] = bestArr
		e.flow[n] = bestFlow
	}
}
