// Package nn implements, from scratch on the standard library, the small
// convolutional classifier of paper §IV-B: Conv(128 filters, 15×1, stride
// 1) → ReLU → flatten (1280) → dense (10) → softmax, trained with Adam on
// the sparse categorical cross-entropy loss.
//
// The model is tiny (≈15k parameters), so everything is plain float64
// slices; training parallelises across minibatch samples with goroutines.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Model is the SLAP cut classifier.
type Model struct {
	// Rows and Cols describe the input matrix (15×10 cut embeddings).
	Rows, Cols int
	// Filters is the number of 15×1 convolution filters (128).
	Filters int
	// Classes is the number of QoR classes (10).
	Classes int

	// ConvW holds Filters×Rows filter weights; ConvB the filter biases.
	ConvW, ConvB []float64
	// DenseW holds Classes×(Filters*Cols) weights; DenseB the biases.
	DenseW, DenseB []float64

	// Normalisation applied to inputs before the network (fit on the
	// training set): x' = (x - Mean[i]) / Std[i] per matrix position.
	Mean, Std []float64
}

// NewModel creates a model with Glorot-uniform initial weights.
func NewModel(rows, cols, filters, classes int, rng *rand.Rand) *Model {
	m := &Model{
		Rows: rows, Cols: cols, Filters: filters, Classes: classes,
		ConvW:  make([]float64, filters*rows),
		ConvB:  make([]float64, filters),
		DenseW: make([]float64, classes*filters*cols),
		DenseB: make([]float64, classes),
		Mean:   make([]float64, rows*cols),
		Std:    ones(rows * cols),
	}
	glorot(m.ConvW, rows, 1, rng)
	glorot(m.DenseW, filters*cols, classes, rng)
	return m
}

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func glorot(w []float64, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * limit
	}
}

// FitNormalization computes per-position mean and standard deviation over
// the training inputs. Positions with zero variance get Std 1. An empty
// training set resets to the identity normalisation (Mean 0, Std 1) instead
// of dividing by zero into NaN weights.
func (m *Model) FitNormalization(xs [][]float64) {
	n := m.Rows * m.Cols
	if len(xs) == 0 {
		for i := 0; i < n; i++ {
			m.Mean[i] = 0
			m.Std[i] = 1
		}
		return
	}
	mean := make([]float64, n)
	for _, x := range xs {
		for i := 0; i < n; i++ {
			mean[i] += x[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(len(xs))
	}
	varr := make([]float64, n)
	for _, x := range xs {
		for i := 0; i < n; i++ {
			d := x[i] - mean[i]
			varr[i] += d * d
		}
	}
	for i := range varr {
		sd := math.Sqrt(varr[i] / float64(len(xs)))
		if sd < 1e-12 {
			sd = 1
		}
		m.Mean[i] = mean[i]
		m.Std[i] = sd
	}
}

// acts holds per-sample forward activations for the backward pass.
type acts struct {
	norm  []float64 // normalised input, Rows*Cols
	conv  []float64 // pre-activation conv output, Filters*Cols
	relu  []float64 // post-ReLU, Filters*Cols
	probs []float64 // softmax output, Classes
}

func (m *Model) newActs() *acts {
	return &acts{
		norm:  make([]float64, m.Rows*m.Cols),
		conv:  make([]float64, m.Filters*m.Cols),
		relu:  make([]float64, m.Filters*m.Cols),
		probs: make([]float64, m.Classes),
	}
}

// actsPool recycles activation scratch across Predict/PredictClass/Loss
// calls; forward overwrites every entry, and an entry is reused only when
// its shapes match the model, so differently-sized models can share the
// pool safely.
var actsPool sync.Pool

func (m *Model) getActs() *acts {
	if v := actsPool.Get(); v != nil {
		a := v.(*acts)
		if len(a.norm) == m.Rows*m.Cols && len(a.conv) == m.Filters*m.Cols && len(a.probs) == m.Classes {
			return a
		}
	}
	return m.newActs()
}

func putActs(a *acts) { actsPool.Put(a) }

// forward runs the network on one input, filling a.
func (m *Model) forward(x []float64, a *acts) {
	n := m.Rows * m.Cols
	for i := 0; i < n; i++ {
		a.norm[i] = (x[i] - m.Mean[i]) / m.Std[i]
	}
	// Conv: out[f][j] = sum_i W[f][i] * X[i][j] + b[f].
	for f := 0; f < m.Filters; f++ {
		w := m.ConvW[f*m.Rows : (f+1)*m.Rows]
		base := f * m.Cols
		for j := 0; j < m.Cols; j++ {
			s := m.ConvB[f]
			for i := 0; i < m.Rows; i++ {
				s += w[i] * a.norm[i*m.Cols+j]
			}
			a.conv[base+j] = s
			if s > 0 {
				a.relu[base+j] = s
			} else {
				a.relu[base+j] = 0
			}
		}
	}
	// Dense + softmax.
	flat := m.Filters * m.Cols
	maxLogit := math.Inf(-1)
	for c := 0; c < m.Classes; c++ {
		s := m.DenseB[c]
		w := m.DenseW[c*flat : (c+1)*flat]
		for k := 0; k < flat; k++ {
			s += w[k] * a.relu[k]
		}
		a.probs[c] = s
		if s > maxLogit {
			maxLogit = s
		}
	}
	var sum float64
	for c := range a.probs {
		a.probs[c] = math.Exp(a.probs[c] - maxLogit)
		sum += a.probs[c]
	}
	for c := range a.probs {
		a.probs[c] /= sum
	}
}

// Predict returns the class probabilities for one input.
//
// Predict and PredictClass are safe for concurrent readers: each call takes
// its own activation scratch (pooled, never shared while in use) and only
// reads the weight slices, so one deserialised Model may be shared across
// mapping goroutines and server requests without copying. (Training methods
// mutate weights and must not run concurrently with inference.)
func (m *Model) Predict(x []float64) []float64 {
	a := m.getActs()
	m.forward(x, a)
	out := make([]float64, m.Classes)
	copy(out, a.probs)
	putActs(a)
	return out
}

// PredictClass returns the argmax class for one input. Like Predict, it is
// safe for concurrent readers (pooled scratch, read-only weights).
func (m *Model) PredictClass(x []float64) int {
	a := m.getActs()
	m.forward(x, a)
	best, bi := math.Inf(-1), 0
	for c, p := range a.probs {
		if p > best {
			best, bi = p, c
		}
	}
	putActs(a)
	return bi
}

// grads mirrors the parameter shapes.
type grads struct {
	convW, convB, denseW, denseB []float64
}

func (m *Model) newGrads() *grads {
	return &grads{
		convW:  make([]float64, len(m.ConvW)),
		convB:  make([]float64, len(m.ConvB)),
		denseW: make([]float64, len(m.DenseW)),
		denseB: make([]float64, len(m.DenseB)),
	}
}

func (g *grads) add(o *grads) {
	for i := range g.convW {
		g.convW[i] += o.convW[i]
	}
	for i := range g.convB {
		g.convB[i] += o.convB[i]
	}
	for i := range g.denseW {
		g.denseW[i] += o.denseW[i]
	}
	for i := range g.denseB {
		g.denseB[i] += o.denseB[i]
	}
}

func (g *grads) scale(s float64) {
	for _, sl := range [][]float64{g.convW, g.convB, g.denseW, g.denseB} {
		for i := range sl {
			sl[i] *= s
		}
	}
}

// backward accumulates the gradient of the cross-entropy loss for one
// sample into g. forward must have been called on a first.
func (m *Model) backward(a *acts, label int, g *grads) {
	flat := m.Filters * m.Cols
	// dLogits = probs - onehot(label).
	dRelu := make([]float64, flat)
	for c := 0; c < m.Classes; c++ {
		d := a.probs[c]
		if c == label {
			d--
		}
		g.denseB[c] += d
		w := m.DenseW[c*flat : (c+1)*flat]
		gw := g.denseW[c*flat : (c+1)*flat]
		for k := 0; k < flat; k++ {
			gw[k] += d * a.relu[k]
			dRelu[k] += d * w[k]
		}
	}
	// Through ReLU into conv params.
	for f := 0; f < m.Filters; f++ {
		base := f * m.Cols
		gw := g.convW[f*m.Rows : (f+1)*m.Rows]
		for j := 0; j < m.Cols; j++ {
			if a.conv[base+j] <= 0 {
				continue
			}
			d := dRelu[base+j]
			g.convB[f] += d
			for i := 0; i < m.Rows; i++ {
				gw[i] += d * a.norm[i*m.Cols+j]
			}
		}
	}
}

// Loss returns the cross-entropy loss of one sample.
func (m *Model) Loss(x []float64, label int) float64 {
	a := m.getActs()
	m.forward(x, a)
	p := a.probs[label]
	if p < 1e-15 {
		p = 1e-15
	}
	putActs(a)
	return -math.Log(p)
}

// Accuracy returns the top-1 accuracy over a dataset.
func (m *Model) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if m.PredictClass(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// BinaryAccuracy collapses the 10 QoR classes to keep (class <= threshold)
// versus drop, the paper's binary-classifier view (§V-B, threshold 6).
func (m *Model) BinaryAccuracy(xs [][]float64, ys []int, threshold int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		pred := m.PredictClass(x) <= threshold
		want := ys[i] <= threshold
		if pred == want {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// NumParams returns the trainable parameter count.
func (m *Model) NumParams() int {
	return len(m.ConvW) + len(m.ConvB) + len(m.DenseW) + len(m.DenseB)
}

func (m *Model) checkInput(x []float64) error {
	if len(x) != m.Rows*m.Cols {
		return fmt.Errorf("nn: input length %d, want %d", len(x), m.Rows*m.Cols)
	}
	return nil
}
