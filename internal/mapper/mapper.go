// Package mapper implements an ABC-style standard-cell technology mapper
// over AIG subject graphs: priority-cuts enumeration (delegated to the cuts
// package and its pluggable policy), NPN Boolean matching against a cell
// library, delay-optimal cover selection, and two area-recovery passes
// (global area flow and exact local area), mirroring the mapper of
// Chatterjee et al. that the paper modifies. Cover selection is the
// shared internal/cover engine under this package's standard-cell cost
// model; the package adds the netlist, buffering and STA built from the
// selected cover.
//
// The cut sorting/filtering policy is the only lever the SLAP experiments
// move; everything downstream of the cut lists (matching, arrival-time
// computation, cover selection, area recovery) is identical across flows,
// exactly as in the paper's framework.
package mapper

import (
	"fmt"

	"slap/internal/aig"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/netlist"
)

// Options configures a mapping run.
type Options struct {
	// Library is the target standard-cell library (required).
	Library *library.Library
	// Policy is the cut sorting/filtering policy used during enumeration;
	// nil enumerates exhaustively (subject to cuts.MergeCap).
	Policy cuts.Policy
	// NoAreaRecovery disables the area-flow and exact-area passes,
	// producing the pure delay-optimal cover.
	NoAreaRecovery bool
	// MaxFanout bounds net fanout in the final netlist: higher-fanout nets
	// are split with balanced buffer trees (the standard post-mapping
	// buffering step), and the mapper's load estimates are capped to match.
	// Zero means DefaultMaxFanout; negative disables buffering.
	MaxFanout int
	// Workers bounds cut-enumeration parallelism: 0 = GOMAXPROCS,
	// 1 = sequential. Parallel and sequential enumeration produce
	// identical cut sets (see cuts.Enumerator.Workers).
	Workers int
	// Pool, when set, lends MapStream a parked cut arena, whatever graph it
	// last served, and takes it back after the run.
	Pool *cuts.Pool
	// CaptureCuts, when set, observes every AND node's finalised cut list
	// (post-policy, or kept by a level filter) exactly once, before the
	// enumerator retires its storage — the hook must copy anything it
	// keeps. Invoked from a single goroutine. cover.Snapshot.Capture fits
	// this hook to record an ECO baseline.
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
	RoundStats []cover.RoundStat
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

// cellModel is the standard-cell cost model of the cover engine: a cut's
// implementations are its library matches, timed by the linear
// load-dependent gate delay with inverters charged for negated pins and
// outputs.
type cellModel struct {
	lib       *library.Library
	invD      float64 // inverter delay into a unit load
	maxFanout int
}

func (m *cellModel) Impls(c *cuts.Cut) []library.Match { return m.lib.Matches(c.TT) }

func (m *cellModel) Eval(c *cuts.Cut, match library.Match, load float64, arrival, flow []float64) (float64, float64) {
	g := match.Gate
	ld := int32(load)
	gateLoad := ld
	if match.OutNeg {
		gateLoad = 1 // the gate drives only the output inverter
	}
	d := g.PinDelay(gateLoad)
	arr, area, flowSum := 0.0, g.Area, 0.0
	for i := 0; i < g.NumPins; i++ {
		leaf := c.Leaves[match.Perm[i]]
		a := arrival[leaf]
		if match.Phase>>uint(i)&1 == 1 {
			a += m.invD
			area += m.lib.Inv.Area
		}
		if a+d > arr {
			arr = a + d
		}
		flowSum += flow[leaf]
	}
	if match.OutNeg {
		arr += m.lib.Inv.PinDelay(ld)
		area += m.lib.Inv.Area
	}
	return arr, area + flowSum
}

func (m *cellModel) Inputs(_ *cuts.Cut, match library.Match) int { return match.Gate.NumPins }

func (m *cellModel) Input(c *cuts.Cut, match library.Match, i int) uint32 {
	return c.Leaves[match.Perm[i]]
}

// Area is the cell area of a match including its polarity inverters.
func (m *cellModel) Area(match library.Match) float64 {
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

func (m *cellModel) Required(_ *cuts.Cut, match library.Match, load, req float64, i int) float64 {
	ld := int32(load)
	gateLoad := ld
	if match.OutNeg {
		gateLoad = 1
		req -= m.lib.Inv.PinDelay(ld)
	}
	r := req - match.Gate.PinDelay(gateLoad)
	if match.Phase>>uint(i)&1 == 1 {
		r -= m.invD
	}
	return r
}

func (m *cellModel) Traits() cover.Traits {
	return cover.Traits{
		FirstMode:    "delay",
		LoadCap:      m.maxFanout,
		FlowEps:      1e-9,
		POInv:        m.invD,
		FallbackCuts: 2,
		ClassicExact: true,
	}
}

// Stream is a standard-cell mapping in progress: the cover engine fed
// node by node (ConsumeNode, ConsumeExtras, SetPeakCuts), then Finish.
type Stream struct {
	*cover.Engine[library.Match]
	m          *cellModel
	g          *aig.AIG
	policyName string
}

// NewStream prepares a streaming mapping of g.
func NewStream(g *aig.AIG, opt Options) (*Stream, error) {
	if opt.Library == nil {
		return nil, fmt.Errorf("mapper: Options.Library is required")
	}
	policyName := "exhaustive"
	if opt.Policy != nil {
		policyName = opt.Policy.Name()
	}
	maxFanout := opt.MaxFanout
	if maxFanout == 0 {
		maxFanout = DefaultMaxFanout
	}
	m := &cellModel{lib: opt.Library, invD: opt.Library.Inv.PinDelay(1), maxFanout: maxFanout}
	e := cover.New[library.Match](g, m, cover.Schedule{Rounds: opt.Rounds, DelayFactor: opt.DelayFactor, NoAreaRecovery: opt.NoAreaRecovery})
	return &Stream{Engine: e, m: m, g: g, policyName: policyName}, nil
}

// Finish runs area recovery, then builds, buffers and times the netlist.
func (st *Stream) Finish() (*Result, error) {
	out := st.Run()
	nl, err := st.buildNetlist()
	if err != nil {
		return nil, err
	}
	if st.m.maxFanout > 0 {
		if buf := netlist.BufferCell(st.m.lib); buf != nil {
			nl = nl.InsertBuffers(buf, st.m.maxFanout)
		}
	}
	var entries []CoverEntry
	for _, n := range st.Cover() {
		if c, _, ok := st.Choice(n); ok {
			entries = append(entries, CoverEntry{Node: n, Cut: *c})
		}
	}
	t := nl.STA()
	return &Result{
		Netlist:        nl,
		Area:           nl.Area(),
		Delay:          t.Delay,
		CutsConsidered: out.CutsConsidered,
		MatchAttempts:  out.MatchAttempts,
		PolicyName:     st.policyName,
		EstimatedDelay: st.GlobalDelay(),
		PeakCuts:       out.PeakCuts,
		Cover:          entries,
		RoundStats:     out.Rounds,
	}, nil
}

// MapStream runs the fused streaming mapping flow on g: cut enumeration
// and Boolean matching pipelined per wavefront level, with per-level cut
// storage retired as soon as its consumers are merged. Results are
// identical for every worker count and with or without a pool (stateful
// policies degrade to the sequential index-order driver, see
// cuts.Enumerator.RunStream). When opt.Pool is set, cut storage is checked
// out of the arena pool and recycled across runs, whatever graphs they
// map.
func MapStream(g *aig.AIG, opt Options) (*Result, error) {
	return mapStream(g, opt, nil)
}

// MapDelta maps g by reusing the snapshot of a structurally similar
// baseline mapped under the same policy (see cover.Snapshot): clean nodes
// take their cut lists from the snapshot, dirty nodes re-run the policy —
// or, under a level filter, its keep decision — and everything else is the
// ordinary MapStream flow, including its Workers, Pool and CaptureCuts, so
// a delta can capture the snapshot the next edit remaps against. The Result is byte-identical to MapStream(g, opt):
// netlist, QoR, counters and PeakCuts.
func MapDelta(g *aig.AIG, opt Options, snap *cover.Snapshot) (*Result, *cover.DeltaStats, error) {
	if opt.Choices != nil {
		return nil, nil, cover.ErrDeltaIneligible
	}
	reused, st, err := snap.Reuse(g, opt.Policy)
	if err != nil {
		return nil, nil, err
	}
	res, err := mapStream(g, opt, reused)
	if err != nil {
		return nil, nil, err
	}
	return res, st, nil
}

// mapStream is MapStream with a delta remap's clean lists (see
// cover.Engine.Enumerate).
func mapStream(g *aig.AIG, opt Options, reused [][]cuts.Cut) (*Result, error) {
	st, err := NewStream(g, opt)
	if err != nil {
		return nil, err
	}
	e := &cuts.Enumerator{G: g, Policy: opt.Policy, Workers: opt.Workers, Choices: opt.Choices}
	if err := st.Enumerate(e, opt.Pool, opt.CaptureCuts, reused); err != nil {
		return nil, err
	}
	return st.Finish()
}
