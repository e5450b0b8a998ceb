package infer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"slap/internal/nn"
)

// nearTieLogits returns n blocks of crafted logits, laid out as laneClass
// reads them, with block i's in lane i%lanes: random logits under a top
// one, with an earlier class 1 to 3 ulps below the top. The softmax often
// rounds the two to one probability, and PredictClass then returns the
// earlier class.
func nearTieLogits(n, classes int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		logits := make([]float64, classes*lanes)
		l := i % lanes
		top := rng.NormFloat64() * math.Exp2(float64(rng.Intn(5)-2))
		for c := 0; c < classes; c++ {
			logits[c*lanes+l] = top - 1 - rng.Float64()*4
		}
		a := rng.Intn(classes - 1)
		b := a + 1 + rng.Intn(classes-1-a)
		logits[b*lanes+l] = top
		v := top
		for k := rng.Intn(3); k >= 0; k-- {
			v = math.Nextafter(v, math.Inf(-1))
		}
		logits[a*lanes+l] = v
		out[i] = logits
	}
	return out
}

// TestLaneClassNearTie pins laneClass to the softmax's first-wins argmax,
// the class PredictClass returns, on lanes whose top two logits are 1 to 3
// ulps apart. It also checks that the lanes have teeth: without the
// fallback margin (0 instead of nearTie), some lanes take the later class.
func TestLaneClassNearTie(t *testing.T) {
	const classes = 10
	probs := make([]float64, classes)
	ties, wrongAtZero := 0, 0
	for i, logits := range nearTieLogits(20000, classes, 71) {
		l := i % lanes
		softmaxLane(logits, l, probs)
		want := ArgmaxClass(probs)
		if got := laneClass(logits, l, nearTie, probs); got != want {
			t.Fatalf("lane %d: class %d, softmax argmax %d", i, got, want)
		}
		top := 0
		for c := 1; c < classes; c++ {
			if logits[c*lanes+l] > logits[top*lanes+l] {
				top = c
			}
		}
		if want != top {
			ties++
		}
		if laneClass(logits, l, 0, probs) != want {
			wrongAtZero++
		}
	}
	if ties == 0 || wrongAtZero == 0 {
		t.Fatalf("%d softmax ties, %d wrong classes at margin 0: the lanes test nothing", ties, wrongAtZero)
	}
	t.Logf("%d of 20000 lanes tie in the softmax; margin 0 gets %d wrong", ties, wrongAtZero)
}

// biasModel returns an embedding-shaped model whose dense weights are all
// zero, so every sample's logits are exactly its dense bias.
func biasModel(seed int64) *nn.Model {
	m := embeddingModel(32, seed)
	clear(m.DenseW)
	return m
}

// requireClassesMatch fails unless ForwardClasses gives every input of xs
// the class nn.Model.PredictClass gives it.
func requireClassesMatch(t *testing.T, label string, eng *Engine, m *nn.Model, xs [][]float64) {
	t.Helper()
	got := make([]int, len(xs))
	if err := eng.ForwardClasses(xs, got); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := m.PredictClass(x); got[i] != want {
			t.Fatalf("%s: batch %d sample %d: class %d, PredictClass %d", label, len(xs), i, got[i], want)
		}
	}
}

// TestForwardClassesSpecialLogits forces logits through the dense bias:
// NaN, ±Inf, exact ties and near ties must all get PredictClass's class.
func TestForwardClassesSpecialLogits(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	one := 1.0
	up := math.Nextafter(one, 2)
	cases := []struct {
		name   string
		logits []float64
	}{
		{"nan-among-finite", []float64{0.5, nan, 2, 1, 0, 0, 0, 0, 0, 0}},
		{"nan-first", []float64{nan, 0.5, 2, 1, 0, 0, 0, 0, 0, 0}},
		{"all-nan", []float64{nan, nan, nan, nan, nan, nan, nan, nan, nan, nan}},
		{"plus-inf-top", []float64{1, 2, inf, 3, 0, 0, 0, 0, 0, 0}},
		{"two-plus-inf", []float64{1, inf, 2, inf, 0, 0, 0, 0, 0, 0}},
		{"minus-inf-rivals", []float64{-inf, 2, -inf, 1, 0, 0, 0, 0, 0, -inf}},
		{"all-minus-inf", []float64{-inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf}},
		{"plus-inf-and-nan", []float64{nan, 1, inf, 0, 0, 0, 0, 0, 0, 0}},
		{"exact-tie", []float64{0, 3, 1, 3, 0, 0, 0, 0, 0, 0}},
		{"one-ulp", []float64{0, one, 0, up, 0, 0, 0, 0, 0, 0}},
		{"huge-spread", []float64{-math.MaxFloat64, math.MaxFloat64, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	withKernels(t, func(t *testing.T) {
		m := biasModel(81)
		eng := NewEngine(m, Options{})
		xs := embeddingBatch(m, 5, 82)
		for _, tc := range cases {
			copy(m.DenseB, tc.logits)
			requireClassesMatch(t, tc.name, eng, m, xs)
		}
		for i, logits := range nearTieLogits(200, m.Classes, 83) {
			l := i % lanes
			for c := range m.DenseB {
				m.DenseB[c] = logits[c*lanes+l]
			}
			requireClassesMatch(t, fmt.Sprintf("near-tie-%d", i), eng, m, xs[:1])
		}
	})
}

// TestForwardClassesMatchesPredictClass pins ForwardClasses to
// nn.Model.PredictClass on embedding-shaped inputs at the served width (32
// filters) and the paper's (128), at batch sizes that end in partial and
// full blocks, on the AVX kernels and on the Go lane loops.
func TestForwardClassesMatchesPredictClass(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		for _, filters := range []int{32, 128} {
			m := embeddingModel(filters, int64(90+filters))
			eng := NewEngine(m, Options{})
			for _, bsz := range []int{1, 7, 37, 64} {
				requireClassesMatch(t, fmt.Sprintf("%d filters", filters), eng, m, embeddingBatch(m, bsz, int64(700+bsz)))
			}
		}
	})
}

func TestForwardClassesValidates(t *testing.T) {
	m := randomModel(15, 10, 8, 10, 84)
	eng := NewEngine(m, Options{})
	xs := randomBatch(m, 3, 85)
	if err := eng.ForwardClasses(xs, make([]int, 2)); err == nil {
		t.Fatal("a classes slice shorter than the batch was accepted")
	}
	if err := eng.ForwardClasses([][]float64{make([]float64, 149)}, make([]int, 1)); err == nil {
		t.Fatal("short input accepted")
	}
	if err := eng.ForwardClasses(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.ClassifyBatch(ctx, xs, make([]int, 3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v", err)
	}
}

// TestForwardClassesAllocs gates the class path: a warm engine classifies
// a batch without allocating.
func TestForwardClassesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime bypasses sync.Pool")
	}
	m := embeddingModel(32, 86)
	eng := NewEngine(m, Options{})
	xs := embeddingBatch(m, 37, 87)
	classes := make([]int, len(xs))
	run := func() {
		if err := eng.ForwardClasses(xs, classes); err != nil {
			panic(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("ForwardClasses allocated %.1f objects per call, want 0", got)
	}
}

// passCounter counts forward passes without allocating.
type passCounter struct{ passes, samples atomic.Int64 }

func (p *passCounter) ObserveFlush(fs FlushStats) {
	p.passes.Add(1)
	p.samples.Add(int64(fs.Size))
}

// TestCoalescerClassifyBatchAllocs gates the served class path: a
// 150-sample submission runs as three passes, each observed once, and
// allocates nothing.
func TestCoalescerClassifyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime bypasses sync.Pool")
	}
	m := embeddingModel(32, 88)
	col := &passCounter{}
	co := NewCoalescer(NewEngine(m, Options{}), CoalescerOptions{Collector: col})
	defer co.Close()
	xs := embeddingBatch(m, 150, 89)
	classes := make([]int, len(xs))
	ctx := context.Background()
	run := func() {
		if err := co.ClassifyBatch(ctx, xs, classes); err != nil {
			panic(err)
		}
	}
	run()
	if p, n := col.passes.Load(), col.samples.Load(); p != 3 || n != 150 {
		t.Fatalf("one submission ran %d passes over %d samples, want 3 over 150", p, n)
	}
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("ClassifyBatch allocated %.1f objects per call, want 0", got)
	}
}

// TestCoalescerClassifyMatchesReference drives concurrent ClassifyBatch
// callers through a coalescer over a bare engine (ForwardClasses) and one
// over a backend that has only ForwardBatch (the ArgmaxClass fallback).
// Every caller must get PredictClass's classes.
func TestCoalescerClassifyMatchesReference(t *testing.T) {
	m := randomModel(5, 4, 8, 6, 79)
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"engine", NewEngine(m, Options{})},
		{"forward-batch-only", &countingBackend{inner: NewEngine(m, Options{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := NewCoalescer(tc.backend, CoalescerOptions{MaxBatch: 16})
			defer co.Close()
			var wg sync.WaitGroup
			for p := 0; p < 6; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					for iter := 0; iter < 20; iter++ {
						xs := randomBatch(m, 1+rng.Intn(40), int64(p*1000+iter))
						classes := make([]int, len(xs))
						if err := co.ClassifyBatch(context.Background(), xs, classes); err != nil {
							t.Error(err)
							return
						}
						for i, x := range xs {
							if want := m.PredictClass(x); classes[i] != want {
								t.Errorf("caller %d iter %d sample %d: class %d, want %d", p, iter, i, classes[i], want)
								return
							}
						}
					}
				}(p)
			}
			wg.Wait()
		})
	}
}

// TestCoalescerClassifyPasses checks that ClassifyBatch splits as
// PredictBatch does, checks ctx before each pass, and refuses a short
// classes slice and a closed coalescer.
func TestCoalescerClassifyPasses(t *testing.T) {
	col := &statsCollector{}
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8, Collector: col})
	xs := randomBatch(ref.M, 20, 7)
	if err := c.ClassifyBatch(context.Background(), xs, make([]int, 19)); err == nil {
		t.Fatal("a classes slice shorter than the submission was accepted")
	}
	if n := len(cb.seen()); n != 0 {
		t.Fatalf("a refused submission ran %d passes", n)
	}
	classes := make([]int, len(xs))
	if err := c.ClassifyBatch(context.Background(), xs, classes); err != nil {
		t.Fatal(err)
	}
	if stats := col.all(); len(stats) != 3 || stats[0].Size != 8 || stats[2].Size != 4 {
		t.Fatalf("collector saw %+v, want passes of 8, 8 and 4", stats)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cb.onPass = func() error {
		cancel()
		return nil
	}
	if err := c.ClassifyBatch(ctx, xs, classes); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(cb.seen()); n != 4 {
		t.Fatalf("backend ran %d passes in all, want 3 and then 1", n)
	}
	c.Close()
	if err := c.ClassifyBatch(context.Background(), xs, classes); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: err = %v, want ErrClosed", err)
	}
}
