package choice

import (
	"math/rand"
	"testing"

	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/lutmap"
)

// TestChoiceClassSoundness fuzzes the class construction: views built from
// random opt-rewrite variants of random AIGs must (a) satisfy the strict
// id/level eligibility rule every enumeration driver relies on and (b) hold
// only functionally equivalent members — checked by direct simulation of
// the combined graph, independently of the signature machinery that built
// the classes.
func TestChoiceClassSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	totalClasses := 0
	for trial := 0; trial < 12; trial++ {
		g := circuits.RandomAIG(int64(trial+1), 4+trial%5, 80+15*trial)
		v := Build(g, Options{})
		totalClasses += v.Classes()

		for rep := 0; rep < 8; rep++ {
			words := make([]uint64, v.G.NumPIs())
			for i := range words {
				words[i] = rng.Uint64()
			}
			vals := v.G.SimulateNodes(words)
			for n := uint32(1); n < uint32(v.G.NumNodes()); n++ {
				for _, m := range v.MembersOf(n) {
					if m.Node >= n {
						t.Fatalf("trial %d: member %d of node %d violates id order", trial, m.Node, n)
					}
					if v.G.Level(m.Node) >= v.G.Level(n) {
						t.Fatalf("trial %d: member %d (level %d) of node %d (level %d) violates level order",
							trial, m.Node, v.G.Level(m.Node), n, v.G.Level(n))
					}
					want := vals[m.Node]
					if m.Compl {
						want = ^want
					}
					if vals[n] != want {
						t.Fatalf("trial %d: member %d (compl=%v) disagrees with node %d", trial, m.Node, m.Compl, n)
					}
				}
			}
		}

		// The view must keep the base interface: mapped netlists verify
		// against the original graph, not the combined one.
		if v.G.NumPIs() != g.NumPIs() || v.G.NumPOs() != g.NumPOs() {
			t.Fatalf("trial %d: view changed the PI/PO interface", trial)
		}
	}
	if totalClasses == 0 {
		t.Fatal("no equivalence classes found across any trial; the fuzz exercised nothing")
	}
}

// TestChoiceMultiRoundNetlistVerifies maps choice views with the
// multi-round engine and verifies the mapped network against the original
// graph — member cuts must never leak a functionally wrong cover.
func TestChoiceMultiRoundNetlistVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		g := circuits.RandomAIG(int64(100+trial), 5+trial%4, 150+20*trial)
		v := Build(g, Options{})
		res, err := lutmap.MapStream(v.G, lutmap.Options{
			Policy:  cuts.DefaultPolicy{},
			Workers: 1,
			Rounds:  3,
			Choices: v,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.EquivalentTo(g, 4, rng); err != nil {
			t.Fatalf("trial %d: mapped netlist not equivalent to base: %v", trial, err)
		}
	}
}

// TestChoiceViewDeterminism pins that building the same view twice yields
// identical classes — the fleet's byte-identity guarantee starts here.
func TestChoiceViewDeterminism(t *testing.T) {
	g := circuits.CarryLookaheadAdder(8)
	a := Build(g, Options{})
	b := Build(g, Options{})
	if a.Classes() != b.Classes() || a.MemberRefs() != b.MemberRefs() {
		t.Fatalf("view construction not deterministic: %d/%d classes, %d/%d member refs",
			a.Classes(), b.Classes(), a.MemberRefs(), b.MemberRefs())
	}
	if a.G.NumNodes() != b.G.NumNodes() {
		t.Fatalf("combined graphs differ: %d vs %d nodes", a.G.NumNodes(), b.G.NumNodes())
	}
	for n := uint32(1); n < uint32(a.G.NumNodes()); n++ {
		ma, mb := a.MembersOf(n), b.MembersOf(n)
		if len(ma) != len(mb) {
			t.Fatalf("node %d: member count differs", n)
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("node %d: member %d differs: %+v vs %+v", n, i, ma[i], mb[i])
			}
		}
	}
}

// TestChoiceProofDropsRareDifferences is the regression for the bug the SAT
// prover exists to prevent: on a deep Booth multiplier (24 PIs, so
// signatures are random, not exhaustive) there are node pairs that agree on
// every uniform-random pattern yet differ on rare inputs — unproven, they
// produced functionally wrong netlists. The proven view must survive biased
// simulation (heavy-ones and heavy-zeros patterns reach the rare corners),
// and the prover must actually have dropped candidates on this circuit.
func TestChoiceProofDropsRareDifferences(t *testing.T) {
	g := circuits.BoothMultiplier(12)
	v := Build(g, Options{})
	if v.Exhaustive() {
		t.Fatal("booth-12 should be past the exhaustive-simulation bound")
	}
	if v.DroppedMembers() == 0 {
		t.Fatal("expected the prover to drop unproven candidates on booth-12; the regression exercised nothing")
	}

	rng := rand.New(rand.NewSource(999))
	pis := make([]uint64, v.G.NumPIs())
	for pass := 0; pass < 120; pass++ {
		for i := range pis {
			switch pass % 3 {
			case 0:
				pis[i] = rng.Uint64()
			case 1: // heavy ones: long carry propagation
				pis[i] = rng.Uint64() | rng.Uint64() | rng.Uint64()
			case 2: // heavy zeros: near-constant guards
				pis[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}
		vals := v.G.SimulateNodes(pis)
		for n := uint32(1); n < uint32(v.G.NumNodes()); n++ {
			for _, m := range v.MembersOf(n) {
				want := vals[m.Node]
				if m.Compl {
					want = ^want
				}
				if vals[n] != want {
					t.Fatalf("pass %d: proven member %d (compl=%v) disagrees with node %d", pass, m.Node, m.Compl, n)
				}
			}
		}
	}
}

// TestSatSolverBasics sanity-checks the mini CDCL solver on hand-built
// instances independent of any AIG.
func TestSatSolverBasics(t *testing.T) {
	// (a | b) & (!a | b) & (a | !b) & (!a | !b) — classic UNSAT square.
	s := newSatSolver(2)
	a, b := mkLit(0, false), mkLit(1, false)
	ok := s.addClause(a, b) && s.addClause(a.not(), b) && s.addClause(a, b.not())
	if !ok {
		t.Fatal("setup clauses inconsistent too early")
	}
	if s.addClause(a.not(), b.not()) && s.solve(nil, 1000) != satFalse {
		t.Fatal("unsat square not refuted")
	}

	// Satisfiable chain with assumptions driving it both ways.
	s = newSatSolver(3)
	x, y, z := mkLit(0, false), mkLit(1, false), mkLit(2, false)
	if !s.addClause(x.not(), y) || !s.addClause(y.not(), z) {
		t.Fatal("chain setup failed")
	}
	if got := s.solve([]slit{x, z.not()}, 1000); got != satFalse {
		t.Fatalf("x & !z should be unsat under x->y->z, got %v", got)
	}
	if got := s.solve([]slit{x}, 1000); got != satTrue {
		t.Fatalf("x alone should be satisfiable, got %v", got)
	}
	if got := s.solve([]slit{x.not(), z.not()}, 1000); got != satTrue {
		t.Fatalf("!x & !z should be satisfiable, got %v", got)
	}
}

// TestProverAgreesWithExhaustiveSim cross-checks the SAT prover against
// ground truth on small graphs: for every candidate pair proposed by
// exhaustive signatures the prover must answer "equivalent", and for
// perturbed (wrong-polarity) pairs it must answer "not equivalent".
func TestProverAgreesWithExhaustiveSim(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := circuits.RandomAIG(int64(200+trial), 4+trial%3, 60+10*trial)
		v := Build(g, Options{})
		if !v.Exhaustive() {
			t.Fatalf("trial %d: expected exhaustive simulation on %d PIs", trial, g.NumPIs())
		}
		pr := newConeProver(v.G)
		checked := 0
		for n := uint32(1); n < uint32(v.G.NumNodes()) && checked < 40; n++ {
			for _, m := range v.MembersOf(n) {
				pr.load([]uint32{n, m.Node})
				if ok, _ := pr.equivalent(n, m.Node, m.Compl, 100000); !ok {
					t.Fatalf("trial %d: prover rejects exhaustively-proven pair (%d, %d, compl=%v)",
						trial, n, m.Node, m.Compl)
				}
				if ok, _ := pr.equivalent(n, m.Node, !m.Compl, 100000); ok {
					t.Fatalf("trial %d: prover accepts wrong-polarity pair (%d, %d)", trial, n, m.Node)
				}
				checked++
			}
		}
	}
}
