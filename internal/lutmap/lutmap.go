// Package lutmap implements K-LUT FPGA technology mapping over the same
// priority-cuts framework as the ASIC mapper: depth-optimal LUT covering
// with area recovery (the classic FlowMap/if-mapper scheme of the paper's
// refs [14], [15]).
//
// The paper argues its findings "can be extended to benefit FPGA-mapping
// ... as the nature of the problem is the same"; this package demonstrates
// exactly that: it is the unit-LUT cost model over the same internal/cover
// engine the ASIC mapper uses, so any cuts.Policy — the SLAP ML filter,
// a cuts.LevelFilter, included — plugs into LUT mapping unchanged.
package lutmap

import (
	"fmt"
	"math/rand"

	"slap/internal/aig"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/tt"
)

// Options configures a LUT mapping run.
type Options struct {
	// Policy is the cut sorting/filtering policy; nil enumerates
	// exhaustively (subject to cuts.MergeCap).
	Policy cuts.Policy
	// NoAreaRecovery disables the area-flow pass.
	NoAreaRecovery bool
	// Workers bounds cut-enumeration parallelism: 0 = GOMAXPROCS,
	// 1 = sequential (see cuts.Enumerator.Workers).
	Workers int
	// Pool, when set, lends MapStream a parked cut arena, whatever graph it
	// last served, and takes it back after the run.
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
	RoundStats []cover.RoundStat

	g *aig.AIG
}

// NumLUTs returns the LUT count (the FPGA area metric).
func (r *Result) NumLUTs() int { return len(r.LUTs) }

// lutImpl is the LUT cost model's implementation type: a cut is its own
// single implementation, one K-input LUT.
type lutImpl struct{}

// oneLUT is the implementation list of every cut.
var oneLUT = []lutImpl{{}}

// lutModel is the unit-LUT cost model of the cover engine: every cut is
// implementable, delay is depth in levels and area counts LUTs.
type lutModel struct{}

func (lutModel) Impls(*cuts.Cut) []lutImpl { return oneLUT }

func (lutModel) Eval(c *cuts.Cut, _ lutImpl, _ float64, arrival, flow []float64) (float64, float64) {
	var d, f float64
	for _, l := range c.Leaves {
		if arrival[l] > d {
			d = arrival[l]
		}
		f += flow[l]
	}
	return d + 1, f + 1
}

func (lutModel) Inputs(c *cuts.Cut, _ lutImpl) int { return len(c.Leaves) }

func (lutModel) Input(c *cuts.Cut, _ lutImpl, i int) uint32 { return c.Leaves[i] }

func (lutModel) Area(lutImpl) float64 { return 1 }

func (lutModel) Required(_ *cuts.Cut, _ lutImpl, _, req float64, _ int) float64 { return req - 1 }

func (lutModel) Traits() cover.Traits {
	return cover.Traits{FirstMode: "depth", FallbackCuts: 1, WholeLevels: true, Rederive: true}
}

// Stream is a LUT mapping in progress: the cover engine fed node by node
// (ConsumeNode, ConsumeExtras, SetPeakCuts), then Finish.
type Stream struct {
	*cover.Engine[lutImpl]
	g          *aig.AIG
	policyName string
}

// NewStream prepares a streaming LUT mapping of g.
func NewStream(g *aig.AIG, opt Options) *Stream {
	policyName := "exhaustive"
	if opt.Policy != nil {
		policyName = opt.Policy.Name()
	}
	e := cover.New[lutImpl](g, lutModel{}, cover.Schedule{Rounds: opt.Rounds, DelayFactor: opt.DelayFactor, NoAreaRecovery: opt.NoAreaRecovery})
	return &Stream{Engine: e, g: g, policyName: policyName}
}

// Finish runs area recovery and builds the LUT network.
func (st *Stream) Finish() (*Result, error) {
	out := st.Run()
	res := &Result{
		CutsConsidered: out.CutsConsidered,
		PeakCuts:       out.PeakCuts,
		PolicyName:     st.policyName,
		RoundStats:     out.Rounds,
		g:              st.g,
	}
	for _, n := range st.Cover() {
		c, _, ok := st.Choice(n)
		if !ok {
			return nil, fmt.Errorf("lutmap: node %d has no feasible cut", n)
		}
		res.LUTs = append(res.LUTs, LUT{Root: n, Leaves: append([]uint32(nil), c.Leaves...), TT: c.TT})
	}
	res.Depth = int32(st.CoverDelay())
	return res, nil
}

// MapStream covers g with K-feasible LUTs minimising depth, then recovers
// area under depth constraints, with enumeration and selection fused per
// wavefront level. Results are identical for every worker count (stateful
// policies degrade to the sequential index-order enumeration driver). When
// opt.Pool is set, cut storage is recycled across runs, whatever graphs
// they map.
func MapStream(g *aig.AIG, opt Options) (*Result, error) {
	st := NewStream(g, opt)
	e := &cuts.Enumerator{G: g, Policy: opt.Policy, Workers: opt.Workers, Choices: opt.Choices}
	if err := st.Enumerate(e, opt.Pool, nil, nil); err != nil {
		return nil, err
	}
	return st.Finish()
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
