package lutmap

import (
	"fmt"
	"math/rand"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
)

func requireSameLUTMapping(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.Depth != got.Depth {
		t.Fatalf("%s: depth %d, want %d", name, got.Depth, want.Depth)
	}
	if want.CutsConsidered != got.CutsConsidered {
		t.Fatalf("%s: cuts considered %d, want %d", name, got.CutsConsidered, want.CutsConsidered)
	}
	if len(want.LUTs) != len(got.LUTs) {
		t.Fatalf("%s: %d LUTs, want %d", name, len(got.LUTs), len(want.LUTs))
	}
	for i := range want.LUTs {
		w, g := &want.LUTs[i], &got.LUTs[i]
		if w.Root != g.Root || len(w.Leaves) != len(g.Leaves) {
			t.Fatalf("%s: LUT[%d] root %d/%v, want %d/%v", name, i, g.Root, g.Leaves, w.Root, w.Leaves)
		}
		for j := range w.Leaves {
			if w.Leaves[j] != g.Leaves[j] {
				t.Fatalf("%s: LUT[%d] leaves %v, want %v", name, i, g.Leaves, w.Leaves)
			}
		}
		if w.TT != g.TT {
			t.Fatalf("%s: LUT[%d] truth table differs", name, i)
		}
	}
}

// mapLUTTwoPhase maps g in two phases: Run collects every node's
// post-policy list, then the lists feed a Stream in ascending node order.
func mapLUTTwoPhase(t testing.TB, g *aig.AIG, opt Options) *Result {
	t.Helper()
	res := (&cuts.Enumerator{G: g, Policy: opt.Policy, Workers: opt.Workers, Choices: opt.Choices}).Run()
	st := NewStream(g, opt)
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			st.ConsumeNode(n, res.Sets[n])
		}
	}
	st.SetPeakCuts(res.PeakCuts)
	out, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLUTStreamingMatchesTwoPhase mirrors the ASIC mapper's determinism
// matrix for the LUT flow.
func TestLUTStreamingMatchesTwoPhase(t *testing.T) {
	graphs := []*aig.AIG{
		circuits.TrainRC16(),
		circuits.CarryLookaheadAdder(16),
		circuits.BoothMultiplier(8),
		circuits.RandomAIG(3, 24, 700),
	}
	type policyCase struct {
		name string
		mk   func() cuts.Policy
	}
	policies := []policyCase{
		{"nil", func() cuts.Policy { return nil }},
		{"default8", func() cuts.Policy { return cuts.DefaultPolicy{Limit: 8} }},
		{"shuffle", func() cuts.Policy { return &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(7)), Limit: 16} }},
	}
	pool := cuts.NewPool(4)
	for _, g := range graphs {
		for _, pc := range policies {
			want := mapLUTTwoPhase(t, g, Options{Policy: pc.mk(), Workers: 1})
			for _, workers := range []int{1, 4} {
				for _, pooled := range []bool{false, true} {
					opt := Options{Policy: pc.mk(), Workers: workers}
					if pooled {
						opt.Pool = pool
					}
					got, err := MapStream(g, opt)
					if err != nil {
						t.Fatalf("%s/%s: MapStream: %v", g.Name, pc.name, err)
					}
					name := fmt.Sprintf("%s/%s/workers=%d/pool=%v", g.Name, pc.name, workers, pooled)
					requireSameLUTMapping(t, name, want, got)
				}
			}
		}
	}
}

// TestLUTStreamingEquivalence checks the streamed LUT network still
// implements the subject AIG.
func TestLUTStreamingEquivalence(t *testing.T) {
	g := circuits.BoothMultiplier(6)
	r, err := MapStream(g, Options{Policy: cuts.DefaultPolicy{}, Workers: 2})
	if err != nil {
		t.Fatalf("MapStream: %v", err)
	}
	if err := r.EquivalentTo(g, 16, rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	if r.PeakCuts <= 0 || r.PeakCuts > r.CutsConsidered {
		t.Fatalf("peak cuts %d outside (0, %d]", r.PeakCuts, r.CutsConsidered)
	}
}
