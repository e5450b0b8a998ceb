package infer

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"slap/internal/nn"
)

// randomModel builds a seeded model with non-trivial normalisation so the
// pack stage is exercised, not just identity-passed.
func randomModel(rows, cols, filters, classes int, seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewModel(rows, cols, filters, classes, rng)
	for i := range m.Mean {
		m.Mean[i] = rng.NormFloat64()
		m.Std[i] = 0.5 + rng.Float64()
	}
	return m
}

func randomBatch(m *nn.Model, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, m.Rows*m.Cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

// embeddingModel is randomModel at the cut-embedding shape (15×10, 10
// classes) with the normalisation FitNormalization gives the broadcast
// rows: Mean and Std equal across the columns of rows 6-14.
func embeddingModel(filters int, seed int64) *nn.Model {
	m := randomModel(15, 10, filters, 10, seed)
	for i := 6; i < m.Rows; i++ {
		for j := 1; j < m.Cols; j++ {
			m.Mean[i*m.Cols+j] = m.Mean[i*m.Cols]
			m.Std[i*m.Cols+j] = m.Std[i*m.Cols]
		}
	}
	return m
}

// embeddingBatch returns n inputs shaped like embed.CutInto's: a root row
// and one to five leaf rows of random features, zero-padded leaf rows up to
// row 5, and one random value broadcast across each of rows 6-14.
func embeddingBatch(m *nn.Model, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for b := range xs {
		x := make([]float64, m.Rows*m.Cols)
		nodes := 2 + rng.Intn(5) // the root and one to five leaves
		for i := 0; i < nodes; i++ {
			for j := 0; j < m.Cols; j++ {
				x[i*m.Cols+j] = rng.NormFloat64()
			}
		}
		for i := 6; i < m.Rows; i++ {
			v := rng.NormFloat64()
			for j := 0; j < m.Cols; j++ {
				x[i*m.Cols+j] = v
			}
		}
		xs[b] = x
	}
	return xs
}

// TestEngineMatchesReference is the golden-equivalence suite: across seeded
// random models (the paper's 128-filter architecture plus odd shapes that
// run the Go lane loops) and batch sizes {1, 7, 64, 1000}, the
// batched engine must produce the identical argmax class and probabilities
// within 1e-9 of the per-sample path. The kernels share the per-sample
// accumulation order, so the drift observed in practice is exactly zero;
// the 1e-9 bound is the acceptance criterion's ceiling, not the target.
func TestEngineMatchesReference(t *testing.T) {
	configs := []struct {
		name                     string
		rows, cols, filters, cls int
	}{
		{"paper-128f", 15, 10, 128, 10},
		{"odd-7f-3c", 15, 10, 7, 3},
		{"small-5x4-32f-6c", 5, 4, 32, 6},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			m := randomModel(cfg.rows, cfg.cols, cfg.filters, cfg.cls, 41)
			eng := NewEngine(m, Options{})
			ref := Reference{M: m}
			for _, bsz := range []int{1, 7, 64, 1000} {
				xs := randomBatch(m, bsz, int64(bsz))
				got, err := eng.ForwardBatch(xs)
				if err != nil {
					t.Fatalf("batch %d: %v", bsz, err)
				}
				want, err := ref.ForwardBatch(xs)
				if err != nil {
					t.Fatalf("batch %d reference: %v", bsz, err)
				}
				for i := range xs {
					if ga, wa := ArgmaxClass(got[i]), ArgmaxClass(want[i]); ga != wa {
						t.Fatalf("batch %d sample %d: argmax %d, reference %d", bsz, i, ga, wa)
					}
					for c := range got[i] {
						if d := math.Abs(got[i][c] - want[i][c]); d > 1e-9 {
							t.Fatalf("batch %d sample %d class %d: |%g - %g| = %g > 1e-9",
								bsz, i, c, got[i][c], want[i][c], d)
						}
					}
				}
			}
		})
	}
}

// TestEngineBitIdentical pins the stronger property the kernels are built
// for: not just 1e-9-close but bit-for-bit equal to nn.Model.Predict, which
// is what makes batched mapping QoR byte-identical. It covers random inputs
// on the paper's 128-filter model (the unshared path) and embedding-shaped
// inputs on a model with the normalisation of a trained one (the shared
// path), at batch sizes that end in every partial-block width.
func TestEngineBitIdentical(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		m := randomModel(15, 10, 128, 10, 43)
		requireMatchesPredict(t, NewEngine(m, Options{}), m, randomBatch(m, 129, 44))

		em := embeddingModel(32, 49)
		eng := NewEngine(em, Options{})
		if eng.nvar != 6 {
			t.Fatalf("engine shares rows %d-14, want 6-14", eng.nvar)
		}
		for _, bsz := range []int{1, 3, 4, 5, 7, 65} {
			xs := embeddingBatch(em, bsz, int64(500+bsz))
			if !eng.shares(xs) {
				t.Fatalf("batch %d: embedding-shaped inputs did not take the shared path", bsz)
			}
			requireMatchesPredict(t, eng, em, xs)
		}
	})
}

// TestEngineSharedRowEdges pins the shared-row decision. A broadcast row
// whose columns differ only in the sign of zero, or that holds NaN, keeps
// its sample's block on the unshared path, and a block that mixes such a
// sample with embedding-shaped ones goes unshared as a whole. A model whose
// Std differs in one column of row 9 shares only rows 10-14. Every case
// must still match the per-sample path bit for bit.
func TestEngineSharedRowEdges(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		m := embeddingModel(32, 50)
		eng := NewEngine(m, Options{})
		for _, tc := range []struct {
			name string
			edit func(x []float64)
		}{
			{"signed-zero", func(x []float64) {
				row := x[8*10 : 9*10]
				for j := range row {
					row[j] = 0
				}
				row[3] = math.Copysign(0, -1)
			}},
			{"nan-one-column", func(x []float64) { x[11*10+7] = math.NaN() }},
			{"nan-payloads", func(x []float64) {
				row := x[12*10 : 13*10]
				for j := range row {
					row[j] = math.Float64frombits(0x7ff8000000000001 + uint64(j))
				}
			}},
		} {
			xs := embeddingBatch(m, 7, 600)
			tc.edit(xs[5])
			if eng.shares(xs[5:6]) {
				t.Fatalf("%s: the edited sample took the shared path", tc.name)
			}
			if eng.shares(xs[4:7]) {
				t.Fatalf("%s: a block holding the edited sample took the shared path", tc.name)
			}
			if !eng.shares(xs[:4]) {
				t.Fatalf("%s: an embedding-shaped block did not take the shared path", tc.name)
			}
			requireMatchesPredict(t, eng, m, xs)
		}

		// One NaN payload in every column is column-uniform: it shares.
		xs := embeddingBatch(m, 5, 601)
		for j := 0; j < 10; j++ {
			xs[2][13*10+j] = math.NaN()
		}
		if !eng.shares(xs[:4]) {
			t.Fatal("a broadcast NaN did not take the shared path")
		}
		requireMatchesPredict(t, eng, m, xs)

		m9 := embeddingModel(32, 51)
		m9.Std[9*10+4] *= 1.5
		eng9 := NewEngine(m9, Options{})
		if eng9.nvar != 10 {
			t.Fatalf("Std differs in row 9: engine shares rows %d-14, want 10-14", eng9.nvar)
		}
		xs = embeddingBatch(m9, 9, 602)
		if !eng9.shares(xs) {
			t.Fatal("rows 10-14 of embedding-shaped inputs did not take the shared path")
		}
		requireMatchesPredict(t, eng9, m9, xs)
	})
}

// TestEngineSharesTrainedRows checks the shared-row detection on a trained
// model: FitNormalization leaves Mean and Std column-uniform on exactly the
// nine broadcast cut-feature rows, 6-14.
func TestEngineSharesTrainedRows(t *testing.T) {
	m, err := nn.LoadFile("../core/testdata/golden_model.gob")
	if err != nil {
		t.Fatal(err)
	}
	if got := NewEngine(m, Options{}).nvar; got != 6 {
		t.Fatalf("engine shares rows %d-%d of the trained model, want 6-14", got, m.Rows-1)
	}
}

// requireMatchesPredict fails unless the engine's probabilities for xs
// equal nn.Model.Predict's bit for bit.
func requireMatchesPredict(t *testing.T, eng *Engine, m *nn.Model, xs [][]float64) {
	t.Helper()
	got, err := eng.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := m.Predict(x)
		for c := range want {
			if g, w := math.Float64bits(got[i][c]), math.Float64bits(want[c]); g != w {
				t.Fatalf("batch %d sample %d class %d: engine %x, per-sample %x", len(xs), i, c, g, w)
			}
		}
	}
}

func TestEngineValidatesInput(t *testing.T) {
	m := randomModel(15, 10, 8, 10, 45)
	eng := NewEngine(m, Options{})
	if _, err := eng.ForwardBatch([][]float64{make([]float64, 149)}); err == nil {
		t.Fatal("short input accepted")
	}
	if out, err := eng.ForwardBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v, want nil/nil", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.PredictBatch(ctx, randomBatch(m, 1, 1)); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// TestEngineScratchReuse runs mixed batch sizes through one engine so the
// pooled block scratch serves full and partial blocks in turn; stale
// scratch contents must never leak into results.
func TestEngineScratchReuse(t *testing.T) {
	m := randomModel(15, 10, 16, 10, 46)
	eng := NewEngine(m, Options{})
	ref := Reference{M: m}
	for _, bsz := range []int{64, 3, 200, 1, 64} {
		xs := randomBatch(m, bsz, int64(100+bsz))
		got, err := eng.ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.ForwardBatch(xs)
		for i := range xs {
			for c := range got[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("batch %d sample %d: scratch reuse corrupted results", bsz, i)
				}
			}
		}
	}
}
