package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
)

// trainSmall trains a scaled-down model quickly; the accuracy bar is modest
// because the point of these tests is pipeline correctness, not QoR.
func trainSmall(t testing.TB) (*SLAP, *TrainReport) {
	t.Helper()
	s, rep, err := Train(TrainOptions{
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 60,
		Epochs:         10,
		Filters:        16,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, rep
}

func TestTrainEndToEnd(t *testing.T) {
	_, rep := trainSmall(t)
	if rep.Samples == 0 || rep.TrainSamples == 0 || rep.ValSamples == 0 {
		t.Fatalf("empty dataset: %+v", rep)
	}
	if rep.TrainSamples+rep.ValSamples != rep.Samples {
		t.Fatalf("split inconsistent")
	}
	if len(rep.History) != 10 {
		t.Fatalf("history has %d epochs", len(rep.History))
	}
	if rep.History[len(rep.History)-1].Loss >= rep.History[0].Loss {
		t.Fatalf("training loss did not decrease: %v -> %v",
			rep.History[0].Loss, rep.History[len(rep.History)-1].Loss)
	}
	// The binary keep/drop task is much easier than the 10-class task
	// (paper: 93.4% vs 34%). Even this scaled-down model must beat chance
	// comfortably and the 10-class accuracy on both.
	if rep.BinaryAccuracy < 0.6 {
		t.Fatalf("binary accuracy %.3f too low", rep.BinaryAccuracy)
	}
	if rep.BinaryAccuracy <= rep.MultiClassAccuracy {
		t.Fatalf("binary accuracy (%.3f) should exceed 10-class accuracy (%.3f)",
			rep.BinaryAccuracy, rep.MultiClassAccuracy)
	}
	sum := 0
	for _, c := range rep.ClassHistogram {
		sum += c
	}
	if sum != rep.Samples {
		t.Fatalf("class histogram inconsistent")
	}
}

func TestTrainRequiresLibrary(t *testing.T) {
	if _, _, err := Train(TrainOptions{}); err == nil {
		t.Fatalf("Train without library must fail")
	}
}

// filterAll runs the keep decision over every AND node of g's exhaustive
// cut lists and returns the filtered lists.
func filterAll(t testing.TB, s *SLAP, g *aig.AIG) [][]cuts.Cut {
	t.Helper()
	res := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers}).Run()
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()
	if err := s.filterNodes(context.Background(), emb, andNodes(g), res.Sets, res.Sets, nil, s.inferScratches()); err != nil {
		t.Fatal(err)
	}
	return res.Sets
}

func TestFilterNodesStructure(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.CarryLookaheadAdder(8)
	sets := filterAll(t, s, g)
	unl := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}}).Run()
	total := 0
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		total += len(sets[n])
		if len(sets[n]) == 0 {
			t.Fatalf("node %d lost all cuts", n)
		}
		// Every node keeps its trivial cut as the fallback.
		found := false
		for i := range sets[n] {
			if sets[n][i].IsTrivial(n) {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d lost its trivial cut", n)
		}
	}
	if total > unl.TotalCuts {
		t.Fatalf("filtering cannot increase cuts: %d > %d", total, unl.TotalCuts)
	}
}

// TestInferNodesStalledWorker checks the inference worker loop's balance:
// while one worker is stalled on the first node it claims, the other
// visits every remaining node, and every node is visited exactly once.
// Workers that each own a fixed share of the nodes would leave the stalled
// worker's share unvisited until the timeout.
func TestInferNodesStalledWorker(t *testing.T) {
	s := &SLAP{}
	nodes := make([]uint32, 9)
	visits := make([]atomic.Int32, len(nodes))
	var stalled atomic.Bool
	var rest atomic.Int32
	released := make(chan struct{})
	err := s.inferNodes(context.Background(), nodes, []*inferScratch{{}, {}}, func(_ context.Context, i int, _ *inferScratch) error {
		visits[i].Add(1)
		if stalled.CompareAndSwap(false, true) {
			select {
			case <-released:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("only %d of the other %d nodes were visited while node %d stalled", rest.Load(), len(nodes)-1, i)
			}
		}
		if rest.Add(1) == int32(len(nodes)-1) {
			close(released)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Fatalf("node index %d visited %d times, want 1", i, v)
		}
	}
}

func TestSLAPMapEquivalence(t *testing.T) {
	s, _ := trainSmall(t)
	for _, g := range []*aig.AIG{
		circuits.ALUCompare(8),
		circuits.ArrayMultiplier(5),
		circuits.BarrelShifter(8),
	} {
		res, err := s.MapStreamContext(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if res.PolicyName != "slap" {
			t.Fatalf("policy name = %q", res.PolicyName)
		}
		if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(11))); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestSLAPReducesCutsVsUnlimited(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.TrainCLA16()
	slapRes, err := s.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	unlRes, err := mapper.MapStream(g, mapper.Options{Library: s.Library, Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if slapRes.CutsConsidered >= unlRes.CutsConsidered {
		t.Fatalf("SLAP cuts %d should be below unlimited %d",
			slapRes.CutsConsidered, unlRes.CutsConsidered)
	}
}

func TestPermutationImportance(t *testing.T) {
	s, rep := trainSmall(t)
	imps := PermutationImportance(s.Model, rep.ValX, rep.ValY, 3, 13)
	if len(imps) != 29 {
		t.Fatalf("got %d importances, want 29", len(imps))
	}
	for i, imp := range imps {
		if imp.Name == "" {
			t.Fatalf("importance %d unnamed", i)
		}
		if math.IsNaN(imp.MultiClassDrop) || math.IsNaN(imp.BinaryDrop) {
			t.Fatalf("NaN importance for %s", imp.Name)
		}
		if i > 0 && imps[i-1].MultiClassDrop < imp.MultiClassDrop {
			t.Fatalf("importances not sorted")
		}
	}
	// Permuting features must matter for at least one feature.
	if imps[0].MultiClassDrop <= 0 {
		t.Fatalf("no feature has positive importance: top=%+v", imps[0])
	}
	// The input data must not have been mutated: rerunning yields the same
	// baseline ordering.
	again := PermutationImportance(s.Model, rep.ValX, rep.ValY, 3, 13)
	for i := range imps {
		if imps[i] != again[i] {
			t.Fatalf("importance run not deterministic or inputs mutated")
		}
	}
}

func TestThresholdsRespected(t *testing.T) {
	s, _ := trainSmall(t)
	// With GoodMax=-1 and AvgMax=-1 every node keeps only its trivial cut;
	// the mapper must still produce a correct netlist via fanin fallbacks.
	s2 := &SLAP{Model: s.Model, Library: s.Library, GoodMax: -1, AvgMax: -1}
	g := circuits.TrainRC16()
	res, err := s2.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(17))); err != nil {
		t.Fatal(err)
	}
}

func TestSLAPMapLUT(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.ALUCompare(10)
	res, err := s.MapLUTStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "slap" || res.NumLUTs() == 0 {
		t.Fatalf("LUT flow malformed: %s %d", res.PolicyName, res.NumLUTs())
	}
	if err := res.EquivalentTo(g, 4, rand.New(rand.NewSource(29))); err != nil {
		t.Fatal(err)
	}
	// The ML filter must shrink the cut footprint vs exhaustive LUT mapping.
	unl, err := lutmap.MapStream(g, lutmap.Options{Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutsConsidered >= unl.CutsConsidered {
		t.Fatalf("SLAP LUT cuts %d >= unlimited %d", res.CutsConsidered, unl.CutsConsidered)
	}
}

// TestBatchedFilterMatchesPerSample pins the PR's headline guarantee: wiring
// a batched inference backend (bare Engine or pass-splitting Coalescer) into
// SLAP changes throughput only — the surviving cut sets and the mapped QoR
// are identical to per-sample Predict, because the GEMM kernels keep the
// per-sample accumulation order.
func TestBatchedFilterMatchesPerSample(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.TrainRC16()

	s.Batch = nil
	perCuts := filterAll(t, s, g)
	perRes, err := s.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	eng := infer.NewEngine(s.Model, infer.Options{})
	co := infer.NewCoalescer(eng, infer.CoalescerOptions{MaxBatch: 32})
	defer co.Close()
	for _, tc := range []struct {
		name  string
		batch Batcher
	}{
		{"engine", eng},
		{"coalescer", co},
	} {
		s.Batch = tc.batch
		got := filterAll(t, s, g)
		if !reflect.DeepEqual(got, perCuts) {
			t.Fatalf("%s: batched filtering chose different cut sets", tc.name)
		}
		res, err := s.MapStreamContext(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Area != perRes.Area || res.Delay != perRes.Delay {
			t.Fatalf("%s: QoR drifted: area %v vs %v, delay %v vs %v",
				tc.name, res.Area, perRes.Area, res.Delay, perRes.Delay)
		}
	}
}
