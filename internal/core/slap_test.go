package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

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
	s, rep := trainSmall(t)
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

	// The report's accuracies come from one batched forward pass; they must
	// equal the per-sample Model.Accuracy and Model.BinaryAccuracy bit for
	// bit, at every threshold.
	wantMulti := s.Model.Accuracy(rep.ValX, rep.ValY)
	if rep.MultiClassAccuracy != wantMulti {
		t.Errorf("report accuracy %v, want %v", rep.MultiClassAccuracy, wantMulti)
	}
	if want := s.Model.BinaryAccuracy(rep.ValX, rep.ValY, DefaultAvgMax); rep.BinaryAccuracy != want {
		t.Errorf("report binary accuracy %v, want %v", rep.BinaryAccuracy, want)
	}
	eng := infer.NewEngine(s.Model, infer.Options{})
	for _, threshold := range []int{0, DefaultGoodMax, 9} {
		multi, bin, err := accuracies(eng, rep.ValX, rep.ValY, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if multi != wantMulti {
			t.Errorf("threshold %d: accuracy %v, want %v", threshold, multi, wantMulti)
		}
		if want := s.Model.BinaryAccuracy(rep.ValX, rep.ValY, threshold); bin != want {
			t.Errorf("threshold %d: binary accuracy %v, want %v", threshold, bin, want)
		}
	}
	if multi, bin, err := accuracies(eng, nil, nil, DefaultAvgMax); multi != 0 || bin != 0 || err != nil {
		t.Errorf("empty set: accuracies %v, %v, %v, want 0, 0, nil", multi, bin, err)
	}
	if _, _, err := accuracies(eng, [][]float64{{1}}, []int{0}, DefaultAvgMax); err == nil {
		t.Error("a row of the wrong length was accepted")
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
	s = s.withBatch()
	res := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, Workers: s.Workers}).Run()
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()
	if err := s.filterNodes(context.Background(), emb, andNodes(g), res.Sets, res.Sets, nil, inferScratches(s.Workers)); err != nil {
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

// TestBatchedFilterMatchesPerSample pins the batched engine's guarantee:
// classifying through it (bare, behind the pass-splitting Coalescer, or as
// the engine a nil Batch builds) changes throughput only — the surviving
// cut sets and the mapped QoR are identical to per-sample Predict through
// infer.Reference, because the engine's kernels keep the per-sample
// operation order.
func TestBatchedFilterMatchesPerSample(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.TrainRC16()

	s.Batch = perSample(s.Model)
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
		{"nil", nil},
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

// stubBatcher answers a submission with its first len(xs) preallocated
// probability vectors, so a test sees only the filter step's allocations.
type stubBatcher struct{ probs [][]float64 }

func (b stubBatcher) PredictBatch(_ context.Context, xs [][]float64) ([][]float64, error) {
	return b.probs[:len(xs)], nil
}

// TestFilterNodeSteadyStateAllocs gates the filter step's allocations: on
// a warm scratch, with a backend that allocates nothing and the kept-list
// slab reset between runs as filterNodes resets it per level, filterNode
// allocates nothing, whether it keeps good cuts and a recovery pool,
// average cuts or the trivial cut alone.
func TestFilterNodeSteadyStateAllocs(t *testing.T) {
	g := circuits.ArrayMultiplier(6)
	res := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, Workers: 1}).Run()
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()
	var n uint32
	for m := range res.Sets {
		if len(res.Sets[m]) > len(res.Sets[n]) {
			n = uint32(m)
		}
	}
	cs := res.Sets[n]
	s := untrained(3)
	sc := &inferScratch{}
	for _, tc := range []struct {
		name   string
		rounds int
		class  func(i int) int
	}{
		{"good-and-pool", 2, func(i int) int { return i % 7 }},
		{"good", 1, func(i int) int { return i % 7 }},
		{"average", 2, func(i int) int { return 4 + i%3 }},
		{"bad", 2, func(int) int { return 9 }},
	} {
		probs := make([][]float64, len(cs))
		for i := range probs {
			probs[i] = make([]float64, s.Model.Classes)
			probs[i][tc.class(i)] = 1
		}
		s.Batch = stubBatcher{probs}
		run := func() {
			sc.resetKept()
			if _, _, err := s.filterNode(context.Background(), emb, n, cs, sc, tc.rounds > 1); err != nil {
				panic(err)
			}
		}
		run() // warms the scratch
		if got := testing.AllocsPerRun(10, run); got != 0 {
			t.Errorf("%s: filterNode over %d cuts allocated %.1f objects, want 0", tc.name, len(cs), got)
		}
	}
}

// TestBatchSlabGrowsGeometrically bounds the embedding slab's regrowth: a
// worker whose nodes carry ever more cuts, one more each time up to 2,001,
// reallocates its slab at most 12 times, not once per new maximum.
func TestBatchSlabGrowsGeometrically(t *testing.T) {
	sc := &inferScratch{}
	grows := 0
	for n := 1; n <= 2001; n++ {
		before := cap(sc.slab)
		slab, xs := sc.batch(n)
		if len(slab) != n*embed.Size || len(xs) != n {
			t.Fatalf("batch(%d) gave %d floats and %d rows", n, len(slab), len(xs))
		}
		if cap(sc.slab) != before {
			grows++
		}
	}
	if grows > 12 {
		t.Fatalf("the slab was reallocated %d times over 2,001 growing batches, want at most 12", grows)
	}
}

// TestKeptSlabLifetime checks both ends of a kept list's life. Once the
// slab has grown to a call's demand (each growth at least doubles it, so
// two calls suffice), filterNodes carves every list of a call from the
// start of the worker's slab: the slab then holds exactly the cuts the
// call kept. And scratches handed back to the pool hold no cut with
// Leaves, which would pin the leaf chunks of the run's arena after the run.
func TestKeptSlabLifetime(t *testing.T) {
	s := untrained(4).withBatch()
	g := circuits.ArrayMultiplier(6)
	res := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, Workers: 1}).Run()
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()
	scratches := inferScratches(1)
	sc := scratches[0]
	kept := make([][]cuts.Cut, g.NumNodes())
	for i := 0; i < 3; i++ {
		if err := s.filterNodes(context.Background(), emb, andNodes(g), res.Sets, kept, nil, scratches); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, l := range kept {
		total += len(l)
	}
	if total == 0 || len(sc.kept) != total {
		t.Fatalf("the slab holds %d cuts after a call that kept %d", len(sc.kept), total)
	}
	putScratches(scratches)
	for j, c := range sc.kept[:cap(sc.kept)] {
		if c.Leaves != nil {
			t.Fatalf("pooled kept-list slot %d still holds leaves %v", j, c.Leaves)
		}
	}
}
