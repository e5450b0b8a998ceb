package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// roundsModel shares one trained model across the multi-round tests —
// training dominates their runtime and every test only needs pipeline
// correctness, not a fresh model.
var roundsModel struct {
	once sync.Once
	s    *SLAP
}

func roundsSLAP(t *testing.T) *SLAP {
	t.Helper()
	roundsModel.once.Do(func() {
		s, _, err := Train(TrainOptions{
			Library:        library.ASAP7ish(),
			MapsPerCircuit: 60,
			Epochs:         10,
			Filters:        16,
			Seed:           7,
		})
		if err != nil {
			return
		}
		roundsModel.s = s
	})
	if roundsModel.s == nil {
		t.Fatal("shared training failed")
	}
	return roundsModel.s
}

// TestMultiRoundQoR pins the multi-round contract on a real circuit: four
// rounds report delay -> area-flow -> area-flow -> area-flow+exact, the
// delay estimate never drifts above the round-1 target, area ends at or
// below the single-pass cover, and the netlist still verifies — with and
// without choices.
func TestMultiRoundQoR(t *testing.T) {
	s := roundsSLAP(t)
	g := circuits.RippleCarryAdder(16)

	single, err := s.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if single.RoundStats != nil {
		t.Fatalf("single-pass map reported round stats: %+v", single.RoundStats)
	}

	for _, choices := range []bool{false, true} {
		s4 := *s
		s4.Rounds = 4
		s4.Choices = choices
		multi, err := s4.MapStreamContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if len(multi.RoundStats) != 4 {
			t.Fatalf("choices=%v: want 4 round stats, got %d", choices, len(multi.RoundStats))
		}
		wantModes := []string{"delay", "area-flow", "area-flow", "area-flow+exact"}
		for i, st := range multi.RoundStats {
			if st.Round != i+1 || st.Mode != wantModes[i] {
				t.Fatalf("choices=%v: round %d is %+v, want round=%d mode=%s", choices, i, st, i+1, wantModes[i])
			}
			if st.Delay > multi.RoundStats[0].Delay+1e-6 {
				t.Fatalf("choices=%v: round %d delay %.3f drifted above round-1 %.3f",
					choices, st.Round, st.Delay, multi.RoundStats[0].Delay)
			}
		}
		last := multi.RoundStats[3]
		if last.Area > multi.RoundStats[0].Area+1e-6 {
			t.Fatalf("choices=%v: recovery ended worse than the delay round: %.3f > %.3f",
				choices, last.Area, multi.RoundStats[0].Area)
		}
		if !choices && multi.Area > single.Area+1e-6 {
			t.Fatalf("4-round area %.3f worse than single-pass %.3f", multi.Area, single.Area)
		}
		if err := multi.Netlist.EquivalentTo(g, 6, rand.New(rand.NewSource(3))); err != nil {
			t.Fatalf("choices=%v: multi-round netlist not equivalent: %v", choices, err)
		}
	}
}

// TestMultiRoundLUTQoR is the lut-side analogue: depth-first round, then
// area recovery at never-worse depth, verified against the base graph.
func TestMultiRoundLUTQoR(t *testing.T) {
	s := roundsSLAP(t)
	g := circuits.RippleCarryAdder(16)

	single, err := s.MapLUTStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	s4 := *s
	s4.Rounds = 4
	s4.Choices = true
	multi, err := s4.MapLUTStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.RoundStats) != 4 {
		t.Fatalf("want 4 round stats, got %d", len(multi.RoundStats))
	}
	if multi.RoundStats[0].Mode != "depth" || multi.RoundStats[3].Mode != "area-flow+exact" {
		t.Fatalf("unexpected round modes: %+v", multi.RoundStats)
	}
	for _, st := range multi.RoundStats {
		if st.Delay > multi.RoundStats[0].Delay {
			t.Fatalf("round %d depth %v exceeds round-1 depth %v", st.Round, st.Delay, multi.RoundStats[0].Delay)
		}
	}
	if multi.NumLUTs() > single.NumLUTs() {
		t.Fatalf("4-round+choices LUTs %d worse than single-pass %d", multi.NumLUTs(), single.NumLUTs())
	}
	if multi.Depth > single.Depth {
		t.Fatalf("4-round+choices depth %d worse than single-pass %d", multi.Depth, single.Depth)
	}
	if err := multi.EquivalentTo(g, 6, rand.New(rand.NewSource(4))); err != nil {
		t.Fatalf("multi-round LUT network not equivalent: %v", err)
	}
}

// TestRoundCounterParity pins the satellite counter contract: round 1 of a
// multi-round run reports exactly the single-pass CutsConsidered/PeakCuts,
// and the result totals aggregate per-round counters (sum and max).
func TestRoundCounterParity(t *testing.T) {
	s := roundsSLAP(t)
	g := circuits.CarryLookaheadAdder(8)

	single, err := s.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	s4 := *s
	s4.Rounds = 3
	for _, streaming := range []bool{false, true} {
		var multi *mapper.Result
		var err error
		if streaming {
			multi, err = s4.MapStreamContext(context.Background(), g)
		} else {
			multi = mapTwoPhase(t, s4.mapping(), g)
		}
		if err != nil {
			t.Fatal(err)
		}
		r1 := multi.RoundStats[0]
		if r1.CutsConsidered != single.CutsConsidered {
			t.Fatalf("streaming=%v: round-1 cuts %d != single-pass %d", streaming, r1.CutsConsidered, single.CutsConsidered)
		}
		sum, peak := 0, 0
		for _, st := range multi.RoundStats {
			sum += st.CutsConsidered
			if st.PeakCuts > peak {
				peak = st.PeakCuts
			}
		}
		if multi.CutsConsidered != sum {
			t.Fatalf("streaming=%v: total cuts %d != per-round sum %d", streaming, multi.CutsConsidered, sum)
		}
		if multi.PeakCuts != peak {
			t.Fatalf("streaming=%v: total peak %d != per-round max %d", streaming, multi.PeakCuts, peak)
		}
	}

	// LUT side, same contract.
	lsingle, err := s.MapLUTStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	lmulti, err := s4.MapLUTStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if lmulti.RoundStats[0].CutsConsidered != lsingle.CutsConsidered {
		t.Fatalf("LUT round-1 cuts %d != single-pass %d", lmulti.RoundStats[0].CutsConsidered, lsingle.CutsConsidered)
	}
	sum := 0
	for _, st := range lmulti.RoundStats {
		sum += st.CutsConsidered
	}
	if lmulti.CutsConsidered != sum {
		t.Fatalf("LUT total cuts %d != per-round sum %d", lmulti.CutsConsidered, sum)
	}
}

// TestMultiRoundDeterminismMatrix pins byte-identity of the 4-round+choices
// flow across worker counts, the fused pipeline against the materialising
// two-phase composition, and arena-pool reuse — the guarantee fleet routing and the result cache depend on.
// The pooled maps share one pool that a different design warmed first, so
// the choice view's enumeration, whose members extend level retirement,
// runs on an arena that served another graph.
func TestMultiRoundDeterminismMatrix(t *testing.T) {
	s := roundsSLAP(t)
	g := circuits.CarryLookaheadAdder(8)
	mapping := func(workers int) *Mapping {
		return &Mapping{Request: Request{Policy: "slap", Rounds: 4, DelayFactor: 1.05, Choices: true},
			Library: s.Library, SLAP: s, Workers: workers}
	}
	pool := cuts.NewPool(0)
	mapPooled(t, mapping(2), circuits.BoothMultiplier(6), pool)

	var ref []byte
	var refCfg string
	for _, workers := range []int{1, 2, 4, 7} {
		for _, streaming := range []bool{false, true} {
			for _, pooled := range []bool{false, true} {
				cfg := fmt.Sprintf("workers=%d streaming=%v pool=%v", workers, streaming, pooled)
				m := mapping(workers)
				var res *mapper.Result
				var err error
				switch {
				case !streaming:
					res = mapTwoPhase(t, m, g)
				case pooled:
					res = mapPooled(t, m, g, pool)
				default:
					res, err = m.MapASIC(context.Background(), g, m.CutPolicy(context.Background()), nil)
				}
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				var buf bytes.Buffer
				if err := res.Netlist.WriteVerilog(&buf); err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				if ref == nil {
					ref, refCfg = buf.Bytes(), cfg
					continue
				}
				if !bytes.Equal(ref, buf.Bytes()) {
					t.Fatalf("netlist bytes differ between %s and %s", refCfg, cfg)
				}
			}
		}
	}
	if st := pool.Stats(); st.Misses != 1 {
		t.Fatalf("the pool built %d arenas, want 1 lent to both designs", st.Misses)
	}
}
