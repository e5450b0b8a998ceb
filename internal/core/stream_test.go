package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/lutmap"
	"slap/internal/mapper"
)

func requireSameStreamResult(t *testing.T, name string, want, got *mapper.Result) {
	t.Helper()
	if want.Delay != got.Delay || want.Area != got.Area || want.EstimatedDelay != got.EstimatedDelay {
		t.Fatalf("%s: (delay, area, est) = (%v, %v, %v), want (%v, %v, %v)",
			name, got.Delay, got.Area, got.EstimatedDelay, want.Delay, want.Area, want.EstimatedDelay)
	}
	if want.CutsConsidered != got.CutsConsidered {
		t.Fatalf("%s: cuts considered %d, want %d", name, got.CutsConsidered, want.CutsConsidered)
	}
	if want.MatchAttempts != got.MatchAttempts {
		t.Fatalf("%s: match attempts %d, want %d", name, got.MatchAttempts, want.MatchAttempts)
	}
	if got.PolicyName != "slap" {
		t.Fatalf("%s: policy %q, want slap", name, got.PolicyName)
	}
	var wb, gb bytes.Buffer
	if err := want.Netlist.WriteBLIF(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Netlist.WriteBLIF(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: netlist bytes differ", name)
	}
}

// filterTwoPhase materialises the ML-filtered cut lists of g (or of its
// choice view) in two phases, the way MapDeltaContext and ClassifyContext
// work: Run collects the whole exhaustive cut universe, then one pass
// filters every AND node. It returns the mapped graph, the filtered
// lists, the recovery pools (nil unless Rounds > 1), the AND nodes in
// ascending order and the enumeration peak.
func filterTwoPhase(t testing.TB, s *SLAP, g *aig.AIG) (*aig.AIG, [][]cuts.Cut, [][]cuts.Cut, []uint32, int) {
	t.Helper()
	ctx := context.Background()
	mg, ch, err := s.choiceGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	res := (&cuts.Enumerator{G: mg, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers, Choices: ch}).Run()
	emb := embed.NewEmbedder(mg)
	emb.PrecomputeAll()
	var extras [][]cuts.Cut
	if s.Rounds > 1 {
		extras = make([][]cuts.Cut, mg.NumNodes())
	}
	nodes := andNodes(mg)
	if err := s.filterNodes(ctx, emb, nodes, res.Sets, res.Sets, extras, s.inferScratches()); err != nil {
		t.Fatal(err)
	}
	return mg, res.Sets, extras, nodes, res.PeakCuts
}

// mapTwoPhase maps the materialised lists of filterTwoPhase by feeding a
// mapper.Stream in ascending node order — a topological order, so the
// result must equal the fused pipeline's.
func mapTwoPhase(t testing.TB, s *SLAP, g *aig.AIG) *mapper.Result {
	t.Helper()
	mg, sets, extras, nodes, peak := filterTwoPhase(t, s, g)
	st, err := mapper.NewStream(mg, mapper.Options{Library: s.Library, Rounds: s.Rounds, DelayFactor: s.DelayFactor})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		st.ConsumeNode(n, sets[n])
		if extras != nil && extras[n] != nil {
			st.ConsumeExtras(n, extras[n])
		}
	}
	st.SetPeakCuts(peak)
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res.PolicyName = "slap"
	return res
}

// mapLUTTwoPhase is mapTwoPhase for the LUT mapper.
func mapLUTTwoPhase(t testing.TB, s *SLAP, g *aig.AIG) *lutmap.Result {
	t.Helper()
	mg, sets, extras, nodes, peak := filterTwoPhase(t, s, g)
	st := lutmap.NewStream(mg, lutmap.Options{Rounds: s.Rounds, DelayFactor: s.DelayFactor})
	for _, n := range nodes {
		st.ConsumeNode(n, sets[n])
		if extras != nil && extras[n] != nil {
			st.ConsumeExtras(n, extras[n])
		}
	}
	st.SetPeakCuts(peak)
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res.PolicyName = "slap"
	return res
}

// TestMapStreamMatchesMapContext pins the fused SLAP pipeline to the
// materialising two-phase composition MapDeltaContext builds on: identical
// netlist bytes, metrics and counters, across worker counts and arena
// pooling.
func TestMapStreamMatchesMapContext(t *testing.T) {
	graphs := []*circuitCase{
		{"rc16", circuits.TrainRC16()},
		{"booth6", circuits.BoothMultiplier(6)},
		{"rand", circuits.RandomAIG(5, 20, 500)},
	}
	for _, gc := range graphs {
		s := untrained(3)
		want := mapTwoPhase(t, s, gc.g)
		pool := cuts.NewPool(2)
		for _, workers := range []int{1, 2, 4} {
			for _, pooled := range []bool{false, true} {
				s2 := untrained(3)
				s2.Workers = workers
				if pooled {
					s2.Pool = pool
				}
				got, err := s2.MapStreamContext(context.Background(), gc.g)
				if err != nil {
					t.Fatalf("%s: MapStreamContext: %v", gc.name, err)
				}
				requireSameStreamResult(t, fmt.Sprintf("%s/workers=%d/pool=%v", gc.name, workers, pooled), want, got)
			}
		}
	}
}

type circuitCase struct {
	name string
	g    *aig.AIG
}

// TestMapStreamBatchedBackend drives the fused pipeline through the
// batched inference engine and the coalescer — the per-level Batch hook —
// and requires byte-identity with the per-sample fused run.
func TestMapStreamBatchedBackend(t *testing.T) {
	g := circuits.BoothMultiplier(6)
	s := untrained(7)
	want, err := s.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatalf("per-sample MapStream: %v", err)
	}

	eng := infer.NewEngine(s.Model, infer.Options{})
	sEng := untrained(7)
	sEng.Batch = eng
	sEng.Workers = 2
	got, err := sEng.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatalf("engine MapStream: %v", err)
	}
	requireSameStreamResult(t, "engine", want, got)

	co := infer.NewCoalescer(eng, infer.CoalescerOptions{MaxBatch: 32})
	defer co.Close()
	sCo := untrained(7)
	sCo.Batch = co
	sCo.Workers = 2
	got, err = sCo.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatalf("coalescer MapStream: %v", err)
	}
	requireSameStreamResult(t, "coalescer", want, got)
}

// TestMapLUTStreamMatchesTwoPhase covers the fused LUT flow.
func TestMapLUTStreamMatchesTwoPhase(t *testing.T) {
	g := circuits.BoothMultiplier(6)
	s := untrained(9)
	want := mapLUTTwoPhase(t, s, g)
	for _, workers := range []int{1, 4} {
		s2 := untrained(9)
		s2.Workers = workers
		s2.Pool = cuts.NewPool(1)
		got, err := s2.MapLUTStreamContext(context.Background(), g)
		if err != nil {
			t.Fatalf("MapLUTStreamContext: %v", err)
		}
		if want.Depth != got.Depth || want.NumLUTs() != got.NumLUTs() || want.CutsConsidered != got.CutsConsidered {
			t.Fatalf("workers=%d: (depth %d, luts %d, cuts %d), want (%d, %d, %d)",
				workers, got.Depth, got.NumLUTs(), got.CutsConsidered,
				want.Depth, want.NumLUTs(), want.CutsConsidered)
		}
		if err := equalLUTs(want, got); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func equalLUTs(a, b *lutmap.Result) error {
	for i := range a.LUTs {
		x, y := &a.LUTs[i], &b.LUTs[i]
		if x.Root != y.Root || x.TT != y.TT || len(x.Leaves) != len(y.Leaves) {
			return fmt.Errorf("LUT[%d] differs: %d/%v vs %d/%v", i, x.Root, x.Leaves, y.Root, y.Leaves)
		}
		for j := range x.Leaves {
			if x.Leaves[j] != y.Leaves[j] {
				return fmt.Errorf("LUT[%d] leaves %v vs %v", i, x.Leaves, y.Leaves)
			}
		}
	}
	return nil
}

// TestMapStreamCancellation verifies ctx cancellation propagates out of
// the fused pipeline.
func TestMapStreamCancellation(t *testing.T) {
	g := circuits.BoothMultiplier(6)
	s := untrained(11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MapStreamContext(ctx, g); err != context.Canceled {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
}
