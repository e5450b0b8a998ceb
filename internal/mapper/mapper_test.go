package mapper

import (
	"math/rand"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
)

func mapCircuit(t testing.TB, g *aig.AIG, p cuts.Policy) *Result {
	t.Helper()
	res, err := MapStream(g, Options{Library: library.ASAP7ish(), Policy: p})
	if err != nil {
		t.Fatalf("MapStream(%s, %v): %v", g.Name, p, err)
	}
	return res
}

func TestMapTinyAnd(t *testing.T) {
	g := aig.New("and")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO("f", g.And(a, b))
	res := mapCircuit(t, g, cuts.DefaultPolicy{})
	if res.Netlist.NumCells() == 0 {
		t.Fatalf("no cells mapped")
	}
	if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 || res.Area <= 0 {
		t.Fatalf("degenerate QoR: %+v", res)
	}
}

func TestMapComplementedPOs(t *testing.T) {
	g := aig.New("cpo")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	g.AddPO("f", x.Not())
	g.AddPO("g", x)
	g.AddPO("const0", aig.ConstFalse)
	g.AddPO("const1", aig.ConstTrue)
	g.AddPO("pi", a)
	g.AddPO("piN", b.Not())
	res := mapCircuit(t, g, cuts.DefaultPolicy{})
	if err := res.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
}

// TestMapEquivalenceAcrossPoliciesAndCircuits is the central integration
// test: every circuit mapped under every policy must remain functionally
// equivalent to its subject graph.
func TestMapEquivalenceAcrossPoliciesAndCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gs := []*aig.AIG{
		circuits.TrainRC16(),
		circuits.TrainCLA16(),
		circuits.ArrayMultiplier(6),
		circuits.BarrelShifter(16),
		circuits.MaxTree(2, 8),
		circuits.ALUCompare(8),
		circuits.BoothMultiplier(6),
	}
	policies := []cuts.Policy{
		cuts.DefaultPolicy{},
		cuts.UnlimitedPolicy{},
		&cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(7))},
		cuts.SingleAttributePolicy{Feature: 2, Descending: true},
		nil, // exhaustive
	}
	for _, g := range gs {
		for _, p := range policies {
			res := mapCircuit(t, g, p)
			if err := res.Netlist.EquivalentTo(g, 4, rng); err != nil {
				t.Fatalf("%s under %s: %v", g.Name, res.PolicyName, err)
			}
			if res.CutsConsidered <= 0 {
				t.Fatalf("%s under %s: no cuts considered", g.Name, res.PolicyName)
			}
		}
	}
}

func TestAreaRecoveryReducesArea(t *testing.T) {
	g := circuits.TrainCLA16()
	lib := library.ASAP7ish()
	noRec, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}, NoAreaRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Area > noRec.Area+1e-9 {
		t.Fatalf("area recovery increased area: %.2f -> %.2f", noRec.Area, rec.Area)
	}
	// Equivalence must hold for both.
	if err := rec.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(4))); err != nil {
		t.Fatal(err)
	}
	if err := noRec.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
}

func TestUnlimitedConsidersMoreCutsThanDefault(t *testing.T) {
	g := circuits.TrainCLA16()
	lib := library.ASAP7ish()
	def, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	unl, err := MapStream(g, Options{Library: lib, Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if unl.CutsConsidered <= def.CutsConsidered {
		t.Fatalf("unlimited cuts %d <= default cuts %d", unl.CutsConsidered, def.CutsConsidered)
	}
}

func TestShuffleSeedsProduceQoRSpread(t *testing.T) {
	g := circuits.TrainRC16()
	lib := library.ASAP7ish()
	delays := make(map[int64]float64)
	distinct := map[float64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		res, err := MapStream(g, Options{
			Library: lib,
			Policy:  &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(seed)), Limit: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Netlist.EquivalentTo(g, 2, rand.New(rand.NewSource(seed+100))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		delays[seed] = res.Delay
		distinct[res.Delay] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("random shuffling produced no QoR spread: %v", delays)
	}
}

// TestPrecomputedListsFeedStream maps lists materialised up front by Run:
// a Stream fed in ascending node order is the entry point every
// materialising consumer uses.
func TestPrecomputedListsFeedStream(t *testing.T) {
	g := circuits.TrainRC16()
	out := mapTwoPhase(t, g, Options{Library: library.ASAP7ish(), Policy: cuts.DefaultPolicy{}})
	if out.PolicyName != (cuts.DefaultPolicy{}).Name() {
		t.Fatalf("PolicyName = %q", out.PolicyName)
	}
	if err := out.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(6))); err != nil {
		t.Fatal(err)
	}
}

func TestTrivialOnlyPolicyStillMappable(t *testing.T) {
	// A policy that keeps only the trivial cut forces the mapper's
	// elementary-fanin-cut fallback on every node.
	g := circuits.TrainRC16()
	out, err := MapStream(g, Options{Library: library.ASAP7ish(), Policy: trivialOnlyPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
}

type trivialOnlyPolicy struct{}

func (trivialOnlyPolicy) Process(g *aig.AIG, n uint32, cs []cuts.Cut) []cuts.Cut {
	return nil
}
func (trivialOnlyPolicy) Name() string { return "trivial-only" }

func TestMaxFanoutBuffering(t *testing.T) {
	lib := library.ASAP7ish()
	// The S-box-style BDD logic of AES creates very high-fanout nets.
	g := circuits.ArrayMultiplier(10)
	buffered, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := buffered.Netlist.MaxFanout(); got > DefaultMaxFanout {
		t.Fatalf("default flow left fanout %d > %d", got, DefaultMaxFanout)
	}
	unbuffered, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}, MaxFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := buffered.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(31))); err != nil {
		t.Fatal(err)
	}
	if err := unbuffered.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(32))); err != nil {
		t.Fatal(err)
	}
	// Buffering adds cells but must never be disastrous for area.
	if buffered.Netlist.NumCells() < unbuffered.Netlist.NumCells() {
		t.Fatalf("buffered netlist has fewer cells than unbuffered")
	}
}

func TestEstimatedDelayTracksSTA(t *testing.T) {
	lib := library.ASAP7ish()
	g := circuits.CarryLookaheadAdder(24)
	res, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatedDelay <= 0 {
		t.Fatalf("no delay estimate recorded")
	}
	// The estimate ignores buffer insertion, so STA may exceed it, but the
	// two must stay within a small factor on a buffer-light design.
	if res.Delay > 2.5*res.EstimatedDelay || res.EstimatedDelay > 2.5*res.Delay {
		t.Fatalf("estimate %.1f and STA %.1f diverge wildly", res.EstimatedDelay, res.Delay)
	}
}

func TestMissingLibraryRejected(t *testing.T) {
	g := circuits.TrainRC16()
	if _, err := MapStream(g, Options{}); err == nil {
		t.Fatalf("Map without a library must fail")
	}
}

func TestADP(t *testing.T) {
	r := &Result{Area: 10, Delay: 5}
	if r.ADP() != 50 {
		t.Fatalf("ADP = %f", r.ADP())
	}
}

func TestDelayDominatedByCriticalPath(t *testing.T) {
	// The mapped delay of a ripple adder must grow with width.
	lib := library.ASAP7ish()
	d8, err := MapStream(circuits.RippleCarryAdder(8), Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	d32, err := MapStream(circuits.RippleCarryAdder(32), Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if d32.Delay <= d8.Delay {
		t.Fatalf("rc32 delay %.1f should exceed rc8 delay %.1f", d32.Delay, d8.Delay)
	}
}

func BenchmarkMapDefault(b *testing.B) {
	g := circuits.TrainCLA16()
	lib := library.ASAP7ish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapUnlimited(b *testing.B) {
	g := circuits.TrainCLA16()
	lib := library.ASAP7ish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapStream(g, Options{Library: lib, Policy: cuts.UnlimitedPolicy{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMapRandomAIGsProperty maps pseudo-random AIGs under the default flow
// and checks the core guarantees: functional equivalence, bounded fanout,
// positive QoR.
func TestMapRandomAIGsProperty(t *testing.T) {
	lib := library.ASAP7ish()
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := aig.New("rand")
		lits := []aig.Lit{}
		for i := 0; i < 6; i++ {
			lits = append(lits, g.AddPI(""))
		}
		for i := 0; i < 80; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		nPOs := 0
		for i := 0; i < 5; i++ {
			l := lits[len(lits)-1-rng.Intn(10)].NotIf(rng.Intn(2) == 1)
			g.AddPO("", l)
			nPOs++
		}
		res, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Netlist.EquivalentTo(g, 4, rng); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Netlist.MaxFanout() > DefaultMaxFanout {
			t.Fatalf("seed %d: fanout bound violated", seed)
		}
		if g.NumAnds() > 0 && (res.Delay <= 0 || res.Area <= 0) {
			t.Fatalf("seed %d: degenerate QoR", seed)
		}
	}
}
