package lutmap

import (
	"math/rand"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
)

func mapLUT(t testing.TB, g *aig.AIG, p cuts.Policy) *Result {
	t.Helper()
	res, err := MapStream(g, Options{Policy: p})
	if err != nil {
		t.Fatalf("lutmap(%s): %v", g.Name, err)
	}
	return res
}

func TestLUTMapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*aig.AIG{
		circuits.TrainRC16(),
		circuits.TrainCLA16(),
		circuits.ArrayMultiplier(6),
		circuits.BarrelShifter(16),
		circuits.ALUCompare(12),
	} {
		for _, p := range []cuts.Policy{cuts.DefaultPolicy{}, cuts.UnlimitedPolicy{}, nil} {
			res := mapLUT(t, g, p)
			if res.NumLUTs() == 0 {
				t.Fatalf("%s: empty LUT network", g.Name)
			}
			if res.Depth <= 0 {
				t.Fatalf("%s: depth %d", g.Name, res.Depth)
			}
			if err := res.EquivalentTo(g, 4, rng); err != nil {
				t.Fatalf("%s under %s: %v", g.Name, res.PolicyName, err)
			}
		}
	}
}

func TestLUTDepthBeatsAIGDepth(t *testing.T) {
	// 5-LUT covering must compress depth well below the AND-level depth.
	g := circuits.TrainRC16()
	res := mapLUT(t, g, cuts.DefaultPolicy{})
	if res.Depth >= g.MaxLevel() {
		t.Fatalf("LUT depth %d not below AIG depth %d", res.Depth, g.MaxLevel())
	}
	// K=5 LUTs cover at least two AND levels on average.
	if int32(2)*res.Depth > g.MaxLevel()+2 {
		t.Logf("note: modest depth compression %d vs %d", res.Depth, g.MaxLevel())
	}
}

func TestLUTAreaRecoveryReducesLUTs(t *testing.T) {
	g := circuits.CarryLookaheadAdder(16)
	with, err := MapStream(g, Options{Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	without, err := MapStream(g, Options{Policy: cuts.DefaultPolicy{}, NoAreaRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.NumLUTs() > without.NumLUTs() {
		t.Fatalf("area recovery increased LUTs: %d -> %d", without.NumLUTs(), with.NumLUTs())
	}
	if with.Depth > without.Depth {
		t.Fatalf("area recovery increased depth: %d -> %d", without.Depth, with.Depth)
	}
	rng := rand.New(rand.NewSource(3))
	if err := with.EquivalentTo(g, 4, rng); err != nil {
		t.Fatal(err)
	}
}

func TestLUTFeasibilityRespectsK(t *testing.T) {
	g := circuits.BoothMultiplier(6)
	res := mapLUT(t, g, cuts.DefaultPolicy{})
	for _, lut := range res.LUTs {
		if len(lut.Leaves) == 0 || len(lut.Leaves) > cuts.K {
			t.Fatalf("LUT at node %d has %d inputs", lut.Root, len(lut.Leaves))
		}
	}
}

func TestLUTPrecomputedListsFeedStream(t *testing.T) {
	// Lists materialised up front (as the SLAP filter's materialising
	// consumers hold them) plug into LUT mapping unchanged: a Stream fed in
	// ascending node order.
	g := circuits.TrainRC16()
	res := mapLUTTwoPhase(t, g, Options{Policy: cuts.DefaultPolicy{}})
	if res.PolicyName != (cuts.DefaultPolicy{}).Name() {
		t.Fatalf("policy name %q", res.PolicyName)
	}
	if err := res.EquivalentTo(g, 4, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
}

func TestLUTTrivialOnlyFallback(t *testing.T) {
	g := circuits.TrainRC16()
	res, err := MapStream(g, Options{Policy: dropAll{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.EquivalentTo(g, 4, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
}

type dropAll struct{}

func (dropAll) Process(g *aig.AIG, n uint32, cs []cuts.Cut) []cuts.Cut { return nil }
func (dropAll) Name() string                                           { return "drop-all" }

func BenchmarkLUTMap(b *testing.B) {
	g := circuits.CarryLookaheadAdder(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MapStream(g, Options{Policy: cuts.DefaultPolicy{}}); err != nil {
			b.Fatal(err)
		}
	}
}
