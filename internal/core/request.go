// One map request. Only the cut policy differs between the paper's flows
// (§III–IV); matching, cover selection and area recovery are shared. So a
// mapping is configured once: a Request holds the options every flow sets,
// Resolve validates it and fills its defaults, and a Mapping binds it to
// the library, keep decision, choice options, arena pool and workers it
// maps against. The slap CLI, slap-serve's /v1/map and SLAP's own Map*
// methods all map through a Mapping, so the policy switch, the choice
// view, the result-cache signature and the verify check are each written
// here once.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
)

// MaxRounds bounds a request's rounds. Each recovery round is a full pass
// over the retained cuts that does not poll the request's deadline, so an
// abandoned request keeps its worker tokens until its rounds finish.
const MaxRounds = 16

// Request is one mapping request. Its JSON names are those of /v1/map.
type Request struct {
	// Policy is the cut policy: default, unlimited, shuffle or slap.
	Policy string `json:"policy"`
	// Target selects the backend: asic (standard cells, default) or lut.
	Target string `json:"target"`
	// Seed drives the shuffle policy.
	Seed int64 `json:"seed"`
	// Limit is the per-node cut budget of default/shuffle (0 = 250).
	Limit int `json:"limit"`
	// Rounds is the number of selection rounds, at most MaxRounds: <= 1
	// keeps the classic single-pass schedule, N > 1 runs the multi-round
	// engine (round 1 delay/depth-optimal, then area-recovery rounds,
	// exact-area last).
	Rounds int `json:"rounds"`
	// DelayFactor scales the round-1 delay into the recovery rounds'
	// required-time target; it must be finite, and values <= 1 (including
	// unset) pin the round-1 optimum.
	DelayFactor float64 `json:"delay_factor"`
	// Choices maps over a structural-choice view of the circuit, so
	// matching sees the union of each node's rewrite variants.
	Choices bool `json:"choices"`
}

// Resolve refuses a request that names no known policy or target, asks
// for more than MaxRounds rounds, or carries a non-finite delay factor or
// a negative cut limit. It fills in the defaults (policy default, target
// asic, at least one round, a delay factor of at least 1) and clears what
// the policy ignores (the seed unless it shuffles, the limit when it is
// unlimited), so requests that map alike sign alike.
func (r *Request) Resolve() error {
	switch r.Policy {
	case "":
		r.Policy = "default"
	case "default", "unlimited", "shuffle", "slap":
	default:
		return fmt.Errorf("unknown policy %q (want default, unlimited, shuffle or slap)", r.Policy)
	}
	switch r.Target {
	case "":
		r.Target = "asic"
	case "asic", "lut":
	default:
		return fmt.Errorf("unknown target %q (want asic or lut)", r.Target)
	}
	if r.Rounds > MaxRounds {
		return fmt.Errorf("rounds %d exceeds the limit of %d", r.Rounds, MaxRounds)
	}
	if math.IsNaN(r.DelayFactor) || math.IsInf(r.DelayFactor, 0) {
		return fmt.Errorf("delay_factor must be finite, got %v", r.DelayFactor)
	}
	if r.Limit < 0 {
		return fmt.Errorf("limit must be non-negative, got %d", r.Limit)
	}
	r.Rounds, r.DelayFactor = max(r.Rounds, 1), max(r.DelayFactor, 1)
	if r.Policy != "shuffle" {
		r.Seed = 0
	}
	if r.Policy == "unlimited" {
		r.Limit = 0
	}
	return nil
}

// ViewSource checks out the choice view of a graph; *choice.Cache is one.
type ViewSource interface {
	Checkout(ctx context.Context, g *aig.AIG, opt choice.Options) (*choice.View, error)
}

// Mapping is a request bound to what it maps against. One map call builds
// its cut policy once with CutPolicy and passes it to every other method
// of the call.
type Mapping struct {
	Request
	// Library is the target standard-cell library.
	Library *library.Library
	// SLAP is the keep decision of policy slap: model, library, thresholds
	// and batcher. Other policies leave it nil.
	SLAP *SLAP
	// ChoiceOpts tunes choice-view construction when Choices is set (zero
	// value = the choice package defaults). Its Workers field is a
	// scheduling knob; every other field changes the built view and is
	// part of Sig.
	ChoiceOpts choice.Options
	// Views checks out choice views, e.g. from a cache; nil builds a fresh
	// view per call.
	Views ViewSource
	// Pool, when set, recycles cut arenas across cold maps, whatever
	// graphs they map.
	Pool *cuts.Pool
	// Workers bounds enumeration and inference parallelism (0 = GOMAXPROCS,
	// 1 = sequential). It never changes a result.
	Workers int
}

// CutPolicy builds the request's cut policy for one map call. SLAP's keep
// decision polls ctx and classifies on m.Workers goroutines.
func (m *Mapping) CutPolicy(ctx context.Context) cuts.Policy {
	switch m.Policy {
	case "unlimited":
		return cuts.UnlimitedPolicy{}
	case "shuffle":
		return &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(m.Seed)), Limit: m.Limit}
	case "slap":
		return slapPolicy{s: m.SLAP, ctx: ctx, workers: m.Workers}
	}
	return cuts.DefaultPolicy{Limit: m.Limit}
}

// Sig is the result-cache signature of the resolved request's asic
// mapping. It pins every option that shapes the result: the policy's own
// (SLAP.ConfigSig under slap), the library, the rounds, the delay factor
// and the choice options. The workers, the pool and the view source change
// scheduling, never results, so a request is signed before it is granted
// workers. Identity is by pointer: signatures are valid within one process.
func (m *Mapping) Sig() string {
	var policy string
	if m.Policy == "slap" {
		policy = m.SLAP.ConfigSig()
	} else {
		policy = fmt.Sprintf("asic/policy=%s/limit=%d/seed=%d/lib=%s@%p", m.Policy, m.Limit, m.Seed, m.Library.Name, m.Library)
	}
	ch := "off"
	if m.Choices {
		// Two configurations that build different views must never share
		// a cached result.
		ch = m.ChoiceOpts.Sig()
	}
	return fmt.Sprintf("%s/rounds=%d/df=%g/choices=%s", policy, m.Rounds, m.DelayFactor, ch)
}

// View returns the graph to map and the choice source to enumerate with:
// g itself without Choices, or else a choice view over g, which shares
// g's PIs and POs, so results verify against g. Construction honours ctx:
// a dropped client or an expired deadline aborts the build mid-phase
// instead of burning the full SAT budget.
func (m *Mapping) View(ctx context.Context, g *aig.AIG) (*aig.AIG, cuts.ChoiceSource, error) {
	if !m.Choices {
		return g, nil, nil
	}
	var v *choice.View
	var err error
	if m.Views != nil {
		v, err = m.Views.Checkout(ctx, g, m.ChoiceOpts)
	} else {
		v, err = choice.BuildContext(ctx, g, m.ChoiceOpts)
	}
	if err != nil {
		return nil, nil, err
	}
	return v.G, v, nil
}

// asicOptions are the standard-cell options of a map under p. A non-nil
// capture records the run's ECO snapshot.
func (m *Mapping) asicOptions(p cuts.Policy, capture *cover.Snapshot) mapper.Options {
	opt := mapper.Options{Library: m.Library, Policy: p, Workers: m.Workers, Rounds: m.Rounds, DelayFactor: m.DelayFactor}
	if capture != nil {
		opt.CaptureCuts = capture.Capture
	}
	return opt
}

// MapASIC maps g onto standard cells under p, over the request's choice
// view. A non-nil capture, from cover.NewSnapshot(g, p), records the ECO
// snapshot that MapDelta remaps edits of g against.
func (m *Mapping) MapASIC(ctx context.Context, g *aig.AIG, p cuts.Policy, capture *cover.Snapshot) (*mapper.Result, error) {
	mg, ch, err := m.View(ctx, g)
	if err != nil {
		return nil, err
	}
	opt := m.asicOptions(p, capture)
	opt.Choices, opt.Pool = ch, m.Pool
	return mapper.MapStream(mg, opt)
}

// MapLUT maps g onto K-LUTs under p, over the request's choice view.
func (m *Mapping) MapLUT(ctx context.Context, g *aig.AIG, p cuts.Policy) (*lutmap.Result, error) {
	mg, ch, err := m.View(ctx, g)
	if err != nil {
		return nil, err
	}
	return lutmap.MapStream(mg, lutmap.Options{Policy: p, Workers: m.Workers, Pool: m.Pool,
		Rounds: m.Rounds, DelayFactor: m.DelayFactor, Choices: ch})
}

// DeltaEligible reports whether a map under p can be delta-remapped: ECO
// snapshots are defined for single-round maps without choices under a
// policy cover.ECOPolicySig accepts (default, unlimited and slap).
func (m *Mapping) DeltaEligible(p cuts.Policy) bool {
	return m.Rounds <= 1 && !m.Choices && cover.ECOPolicySig(p) != ""
}

// MapDelta maps g under p by reusing base, the snapshot of a relative's
// map under the same policy, and re-running the policy on the dirty cone
// only. The result is byte-identical to MapASIC's; a non-nil capture
// records the snapshot the next edit remaps against. The delta carves its
// cuts from a fresh arena, not from the pool.
func (m *Mapping) MapDelta(g *aig.AIG, p cuts.Policy, base, capture *cover.Snapshot) (*mapper.Result, *cover.DeltaStats, error) {
	return mapper.MapDelta(g, m.asicOptions(p, capture), base)
}

// Verify is the one equivalence check of a mapped result against its
// subject graph g: 8 rounds of 64 random patterns from seed 99.
// equivalentTo is the result's EquivalentTo, a netlist's or a LUT
// network's.
func Verify(g *aig.AIG, equivalentTo func(*aig.AIG, int, *rand.Rand) error) error {
	return equivalentTo(g, 8, rand.New(rand.NewSource(99)))
}

// ConfigSig signs SLAP's keep decision: model and library identity, the
// keep thresholds and the enumeration merge cap. The merge cap is a
// constant, but it stays in the string: the result cache charges each
// entry its signature's length. Workers, Batch and Views are left out;
// they change scheduling, never results (the batched kernels accumulate in
// per-sample order). Mapping.Sig appends the request's rounds, delay
// factor and choices.
func (s *SLAP) ConfigSig() string {
	return fmt.Sprintf("slap/model=%p/lib=%s@%p/good=%d/avg=%d/mc=%d",
		s.Model, s.Library.Name, s.Library, s.GoodMax, s.AvgMax, cuts.MergeCap)
}
