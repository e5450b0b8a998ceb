package mapper

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
)

// requireSameMapping asserts two mapping results are byte-identical:
// metrics, counters, the chosen cover, and the emitted netlist.
func requireSameMapping(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.Delay != got.Delay || want.Area != got.Area {
		t.Fatalf("%s: delay/area (%v, %v), want (%v, %v)", name, got.Delay, got.Area, want.Delay, want.Area)
	}
	if want.EstimatedDelay != got.EstimatedDelay {
		t.Fatalf("%s: estimated delay %v, want %v", name, got.EstimatedDelay, want.EstimatedDelay)
	}
	if want.CutsConsidered != got.CutsConsidered {
		t.Fatalf("%s: cuts considered %d, want %d", name, got.CutsConsidered, want.CutsConsidered)
	}
	if want.MatchAttempts != got.MatchAttempts {
		t.Fatalf("%s: match attempts %d, want %d", name, got.MatchAttempts, want.MatchAttempts)
	}
	if len(want.Cover) != len(got.Cover) {
		t.Fatalf("%s: cover size %d, want %d", name, len(got.Cover), len(want.Cover))
	}
	for i := range want.Cover {
		w, g := &want.Cover[i], &got.Cover[i]
		if w.Node != g.Node || w.Cut.Sig != g.Cut.Sig || len(w.Cut.Leaves) != len(g.Cut.Leaves) {
			t.Fatalf("%s: cover[%d] = node %d cut %v, want node %d cut %v",
				name, i, g.Node, g.Cut.Leaves, w.Node, w.Cut.Leaves)
		}
		for j := range w.Cut.Leaves {
			if w.Cut.Leaves[j] != g.Cut.Leaves[j] {
				t.Fatalf("%s: cover[%d] leaves %v, want %v", name, i, g.Cut.Leaves, w.Cut.Leaves)
			}
		}
	}
	var wb, gb bytes.Buffer
	if err := want.Netlist.WriteBLIF(&wb); err != nil {
		t.Fatalf("%s: WriteBLIF(want): %v", name, err)
	}
	if err := got.Netlist.WriteBLIF(&gb); err != nil {
		t.Fatalf("%s: WriteBLIF(got): %v", name, err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: netlist BLIF bytes differ (%d vs %d bytes)", name, gb.Len(), wb.Len())
	}
}

// mapTwoPhase maps g in two phases, the way materialising consumers do:
// Run collects every node's post-policy list, then the lists feed a Stream
// in ascending node order (a topological order).
func mapTwoPhase(t testing.TB, g *aig.AIG, opt Options) *Result {
	t.Helper()
	res := (&cuts.Enumerator{G: g, Policy: opt.Policy, Workers: opt.Workers, Choices: opt.Choices}).Run()
	st, err := NewStream(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			if opt.CaptureCuts != nil {
				opt.CaptureCuts(n, res.Sets[n])
			}
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

// TestStreamingMatchesTwoPhase is the fused-pipeline determinism matrix:
// MapStream must reproduce the two-phase composition byte for byte across
// graphs, policies (including the stateful ShufflePolicy, which exercises
// the sequential degradation gate), worker counts, and arena pooling.
func TestStreamingMatchesTwoPhase(t *testing.T) {
	lib := library.ASAP7ish()
	graphs := []*aig.AIG{
		circuits.TrainRC16(),
		circuits.CarryLookaheadAdder(16),
		circuits.BoothMultiplier(8),
	}
	for seed := int64(1); seed <= 2; seed++ {
		graphs = append(graphs, circuits.RandomAIG(seed, 24, 700))
	}
	type policyCase struct {
		name string
		mk   func() cuts.Policy
	}
	policies := []policyCase{
		{"nil", func() cuts.Policy { return nil }},
		{"default", func() cuts.Policy { return cuts.DefaultPolicy{} }},
		{"default8", func() cuts.Policy { return cuts.DefaultPolicy{Limit: 8} }},
		{"single-attr", func() cuts.Policy { return cuts.SingleAttributePolicy{Feature: 2, Descending: true} }},
		{"shuffle", func() cuts.Policy { return &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(7)), Limit: 16} }},
	}
	pool := cuts.NewPool(4)
	for _, g := range graphs {
		for _, pc := range policies {
			want := mapTwoPhase(t, g, Options{Library: lib, Policy: pc.mk(), Workers: 1})
			for _, workers := range []int{1, 2, 4, 7} {
				for _, pooled := range []bool{false, true} {
					opt := Options{Library: lib, Policy: pc.mk(), Workers: workers}
					if pooled {
						opt.Pool = pool
					}
					got, err := MapStream(g, opt)
					if err != nil {
						t.Fatalf("%s/%s: MapStream: %v", g.Name, pc.name, err)
					}
					name := fmt.Sprintf("%s/%s/workers=%d/pool=%v", g.Name, pc.name, workers, pooled)
					requireSameMapping(t, name, want, got)
					if got.PeakCuts <= 0 {
						t.Fatalf("%s: PeakCuts=%d not populated", name, got.PeakCuts)
					}
				}
			}
		}
	}
}

// TestStreamingNoAreaRecovery covers the delay-only flow (area passes off).
func TestStreamingNoAreaRecovery(t *testing.T) {
	lib := library.ASAP7ish()
	g := circuits.BoothMultiplier(8)
	want := mapTwoPhase(t, g, Options{Library: lib, Policy: cuts.DefaultPolicy{}, NoAreaRecovery: true, Workers: 1})
	got, err := MapStream(g, Options{Library: lib, Policy: cuts.DefaultPolicy{}, NoAreaRecovery: true, Workers: 2})
	if err != nil {
		t.Fatalf("MapStream: %v", err)
	}
	requireSameMapping(t, "no-area-recovery", want, got)
}

// TestStreamingPeakBelowTotal documents the point of the fused pipeline: on
// a deep circuit the live cut window stays well under the full universe.
func TestStreamingPeakBelowTotal(t *testing.T) {
	lib := library.ASAP7ish()
	g := circuits.BoothMultiplier(8)
	r, err := MapStream(g, Options{Library: lib, Workers: 1})
	if err != nil {
		t.Fatalf("MapStream: %v", err)
	}
	two := mapTwoPhase(t, g, Options{Library: lib, Workers: 1})
	if r.PeakCuts >= two.PeakCuts {
		t.Fatalf("streaming peak %d not below two-phase peak %d", r.PeakCuts, two.PeakCuts)
	}
	if math.IsInf(r.Delay, 0) || r.Delay <= 0 {
		t.Fatalf("bad delay %v", r.Delay)
	}
}
