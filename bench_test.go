// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index). The
// benchmarks exercise the same code paths as cmd/slap-experiments but at
// reduced sizes so `go test -bench=. -benchmem` completes in minutes; the
// full regeneration is `go run ./cmd/slap-experiments -profile fast|paper`.
package slap_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/experiments"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/mapcache"
	"slap/internal/mapper"
	"slap/internal/opt"
)

// benchProfile is a reduced profile for benchmark iterations.
func benchProfile() experiments.Profile {
	p := experiments.Fast()
	p.Name = "bench"
	p.AdderBits, p.BarBits, p.C6288Bits = 32, 16, 8
	p.MaxWay, p.MaxBits = 2, 16
	p.RCBigBits, p.RCSmallBits = 48, 24
	p.SinBits, p.ALUBits = 8, 16
	p.Booth1Bits, p.Booth2Bits = 8, 10
	p.SquareBits, p.AESRounds, p.MultBits = 10, 1, 10
	p.TrainMaps, p.TrainEpochs, p.Filters = 60, 8, 16
	p.Fig1Samples = 32
	p.ImportanceRounds = 2
	return p
}

var (
	trainOnce    sync.Once
	trainOutcome *experiments.TrainOutcome
	trainErr     error
)

// sharedTraining trains one model reused by every benchmark needing SLAP.
func sharedTraining(b *testing.B) *experiments.TrainOutcome {
	b.Helper()
	trainOnce.Do(func() {
		trainOutcome, trainErr = experiments.RunTraining(benchProfile(), library.ASAP7ish(), nil)
	})
	if trainErr != nil {
		b.Fatal(trainErr)
	}
	return trainOutcome
}

// BenchmarkFig1DesignSpace regenerates the paper's Fig. 1: the QoR
// distribution of random-shuffle mappings against the default heuristic.
func BenchmarkFig1DesignSpace(b *testing.B) {
	p := benchProfile()
	lib := library.ASAP7ish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFig1(p, func() *aig.AIG { return circuits.BoothMultiplier(8) }, lib, nil)
		if err != nil {
			b.Fatal(err)
		}
		minD, maxD, _, _ := fig.Spread()
		if maxD <= minD {
			b.Fatal("no QoR dispersion in Fig. 1 sample")
		}
	}
}

// BenchmarkModelAccuracy regenerates the §V-B experiment: training-data
// generation from random maps plus CNN training and validation accuracy.
func BenchmarkModelAccuracy(b *testing.B) {
	p := benchProfile()
	lib := library.ASAP7ish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		tr, err := experiments.RunTraining(p, lib, nil)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Report.BinaryAccuracy <= 0.5 {
			b.Fatalf("binary accuracy %.3f at chance level", tr.Report.BinaryAccuracy)
		}
	}
}

// BenchmarkTable2 regenerates one Table II row per sub-benchmark: the
// design is mapped under the three flows (vanilla ABC heuristic, Unlimited,
// SLAP) and the mapped netlists are verified against the subject graph.
func BenchmarkTable2(b *testing.B) {
	p := benchProfile()
	lib := library.ASAP7ish()
	tr := sharedTraining(b)
	for _, d := range experiments.Designs(p) {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			g := d.Build()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				abc, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
				if err != nil {
					b.Fatal(err)
				}
				unl, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.UnlimitedPolicy{}})
				if err != nil {
					b.Fatal(err)
				}
				sl, err := tr.SLAP.MapStreamContext(context.Background(), g)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, r := range []*mapper.Result{abc, unl, sl} {
						if err := r.Netlist.EquivalentTo(g, 2, rng); err != nil {
							b.Fatalf("%s: %v", r.PolicyName, err)
						}
					}
					b.ReportMetric(abc.Delay, "abc-ps")
					b.ReportMetric(sl.Delay, "slap-ps")
					b.ReportMetric(float64(sl.CutsConsidered)/float64(abc.CutsConsidered), "cuts-ratio")
				}
			}
		})
	}
}

// BenchmarkFig5Importance regenerates the permutation feature-importance
// experiment over the shared model's validation set.
func BenchmarkFig5Importance(b *testing.B) {
	p := benchProfile()
	tr := sharedTraining(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := experiments.RunFig5(p, tr, nil)
		if len(fig.Importances) != 29 {
			b.Fatalf("expected 29 feature importances, got %d", len(fig.Importances))
		}
	}
}

// BenchmarkAblationSortPolicies regenerates the §III single-attribute
// sorting comparison on a subset of designs.
func BenchmarkAblationSortPolicies(b *testing.B) {
	p := benchProfile()
	lib := library.ASAP7ish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		abl, err := experiments.RunAblation(p, lib, 3, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(abl.Designs) != 3 {
			b.Fatal("ablation ran on wrong design count")
		}
	}
}

// BenchmarkSLAPInference isolates the inference half of the SLAP flow:
// exhaustive cut enumeration, embedding and CNN classification of every
// cut, without the keep decision or the mapper (the /v1/classify path).
func BenchmarkSLAPInference(b *testing.B) {
	tr := sharedTraining(b)
	g := circuits.CarryLookaheadAdder(32)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls, err := tr.SLAP.ClassifyContext(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		if cls.TotalCuts == 0 {
			b.Fatal("no cuts classified")
		}
	}
}

// BenchmarkCutEnumeration measures the mapper's first stage — priority-cuts
// enumeration — sequentially (workers1) and under the level-wavefront worker
// pool (workersAll). The two variants produce identical cut sets; the speedup
// between them is the headline number of the concurrency architecture.
func BenchmarkCutEnumeration(b *testing.B) {
	g := circuits.ArrayMultiplier(12)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers1", 1},
		{"workersAll", 0},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := &cuts.Enumerator{G: g, Policy: cuts.DefaultPolicy{}, Workers: tc.workers}
				if res := e.Run(); res.TotalCuts == 0 {
					b.Fatal("enumeration produced no cuts")
				}
			}
		})
	}
}

// BenchmarkEndToEndSLAPMap measures the complete SLAP mapping flow on a
// mid-size multiplier: matching fused into the enumeration wavefront, cut
// storage retired level by level, and a pooled arena reused across
// iterations. per-sample runs the CNN one cut at a time; batched wires
// inference as slap-serve does, one engine behind a coalescer, with two
// mapping workers.
func BenchmarkEndToEndSLAPMap(b *testing.B) {
	tr := sharedTraining(b)
	g := circuits.ArrayMultiplier(8)
	run := func(b *testing.B, s core.SLAP) {
		s.Pool = cuts.NewPool(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MapStreamContext(context.Background(), g); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-sample", func(b *testing.B) { run(b, *tr.SLAP) })
	b.Run("batched", func(b *testing.B) {
		co := infer.NewCoalescer(infer.NewEngine(tr.SLAP.Model, infer.Options{}), infer.CoalescerOptions{})
		defer co.Close()
		s := *tr.SLAP
		s.Batch, s.Workers = co, 2
		run(b, s)
	})
}

// BenchmarkMultiRoundMap compares the classic single-pass SLAP map against
// the 4-round engine (area-flow recovery + exact-area, with and without a
// choice view) on the same circuit — the per-round cost of the recovery
// rounds rides on the one enumeration+inference pass, so the marginal time
// and allocation of extra rounds is the interesting number.
func BenchmarkMultiRoundMap(b *testing.B) {
	tr := sharedTraining(b)
	g := circuits.ArrayMultiplier(8)
	pool := cuts.NewPool(1)
	for _, tc := range []struct {
		name    string
		rounds  int
		choices bool
	}{
		{"rounds1", 1, false},
		{"rounds4", 4, false},
		{"rounds4choices", 4, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			s := *tr.SLAP
			s.Rounds = tc.rounds
			s.Choices = tc.choices
			s.Pool = pool
			for i := 0; i < b.N; i++ {
				if _, err := s.MapStreamContext(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainingDataGeneration isolates the random-shuffle mapping
// data-generation loop of §IV-B.
func BenchmarkTrainingDataGeneration(b *testing.B) {
	lib := library.ASAP7ish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.Train(core.TrainOptions{
			Library:        lib,
			MapsPerCircuit: 20,
			Epochs:         1,
			Filters:        8,
			Seed:           int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Design-choice ablations (DESIGN.md §5) ---

// BenchmarkAblationBuffering quantifies the post-mapping fanout-buffering
// pass: without it, high-fanout nets distort the linear load-delay model.
func BenchmarkAblationBuffering(b *testing.B) {
	lib := library.ASAP7ish()
	g := circuits.AES(1)
	for _, tc := range []struct {
		name      string
		maxFanout int
	}{
		{"unbuffered", -1},
		{"buffered16", 16},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mapper.MapStream(g, mapper.Options{
					Library:   lib,
					Policy:    cuts.DefaultPolicy{},
					MaxFanout: tc.maxFanout,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Delay, "delay-ps")
					b.ReportMetric(res.Area, "area-um2")
				}
			}
		})
	}
}

// BenchmarkAblationAreaRecovery quantifies the area-flow + exact-area
// passes against the pure delay-optimal cover.
func BenchmarkAblationAreaRecovery(b *testing.B) {
	lib := library.ASAP7ish()
	g := circuits.BoothMultiplier(10)
	for _, tc := range []struct {
		name string
		off  bool
	}{
		{"with-recovery", false},
		{"delay-only", true},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mapper.MapStream(g, mapper.Options{
					Library:        lib,
					Policy:         cuts.DefaultPolicy{},
					NoAreaRecovery: tc.off,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Delay, "delay-ps")
					b.ReportMetric(res.Area, "area-um2")
				}
			}
		})
	}
}

// BenchmarkAblationSupergates quantifies single-level supergates (paper
// §II context: reducing structural bias in matching).
func BenchmarkAblationSupergates(b *testing.B) {
	base := library.ASAP7ish()
	sg, err := base.WithSupergates(0)
	if err != nil {
		b.Fatal(err)
	}
	g := circuits.ALUCompare(24)
	for _, tc := range []struct {
		name string
		lib  *library.Library
	}{
		{"base-library", base},
		{"with-supergates", sg},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mapper.MapStream(g, mapper.Options{Library: tc.lib, Policy: cuts.DefaultPolicy{}})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Delay, "delay-ps")
					b.ReportMetric(res.Area, "area-um2")
				}
			}
		})
	}
}

// BenchmarkAblationBalance quantifies pre-mapping AND-tree balancing on an
// AND-chain-dominated design (sum-of-products); balancing reduces subject
// depth ~3x there. On carry/XOR-dominated arithmetic it can instead hurt
// mapped delay by disturbing cut-friendly structure — the structural-bias
// effect the paper's §II background discusses.
func BenchmarkAblationBalance(b *testing.B) {
	lib := library.ASAP7ish()
	raw := sopChain(32)
	balanced := opt.Optimize(raw)
	for _, tc := range []struct {
		name string
		g    *aig.AIG
	}{
		{"raw-subject", raw},
		{"balanced", balanced},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := mapper.MapStream(tc.g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Delay, "delay-ps")
					b.ReportMetric(float64(tc.g.MaxLevel()), "aig-depth")
				}
			}
		})
	}
}

// sopChain builds a linear sum-of-products chain, the classic balancing
// target.
func sopChain(n int) *aig.AIG {
	bd := circuits.NewBuilder("sop_chain")
	in := bd.Input("x", n)
	o := aig.ConstFalse
	for i := 0; i+1 < n; i++ {
		o = bd.G.Or(o, bd.G.And(in[i], in[i+1]))
	}
	bd.G.AddPO("f", o)
	all := aig.ConstTrue
	for i := 0; i < n; i++ {
		all = bd.G.And(all, in[i])
	}
	bd.G.AddPO("all", all)
	return bd.G
}

// BenchmarkRepeatReplay measures the serving win of the content-addressed
// result cache on a repeat-heavy replay: every iteration resubmits the
// same design. "cold" re-runs the full SLAP flow each time; "cached"
// answers from the result cache in O(1) after one warm-up mapping.
func BenchmarkRepeatReplay(b *testing.B) {
	tr := sharedTraining(b)
	s := tr.SLAP
	g := circuits.BoothMultiplier(8)
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.MapStreamContext(ctx, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := mapcache.New(0)
		opt := core.CachedOptions{}
		if _, _, err := s.MapCached(ctx, g, cache, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, o, err := s.MapCached(ctx, g, cache, opt)
			if err != nil {
				b.Fatal(err)
			}
			if !o.Hit {
				b.Fatal("replay iteration missed the cache")
			}
		}
	})
}

// BenchmarkECORemap measures the delta-remapping win on a ~5%-edited
// design (localised near the POs, the shape real ECOs take): "cold" maps
// the edited design from scratch, "delta" reuses the baseline snapshot and
// re-runs classification only on the dirty cone. Both produce byte-
// identical netlists (pinned by TestSlapMapDeltaByteIdentical).
func BenchmarkECORemap(b *testing.B) {
	tr := sharedTraining(b)
	s := tr.SLAP
	base := circuits.BoothMultiplier(8)
	// The edit flips half the ANDs in the last 10% of the id range — about
	// 5% of the design overall.
	edited := circuits.PerturbSpan(base, 11, 0.9, 1, 0.5)
	ctx := context.Background()
	_, snap, err := s.MapStreamCaptureContext(ctx, base)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.MapStreamContext(ctx, edited); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		var dirty float64
		for i := 0; i < b.N; i++ {
			_, _, st, err := s.MapDeltaContext(ctx, edited, snap)
			if err != nil {
				b.Fatal(err)
			}
			dirty = st.DirtyFraction
		}
		b.ReportMetric(dirty, "dirty-frac")
	})
}
