package infer

import (
	"context"
	"fmt"
	"math"
	"sync"

	"slap/internal/nn"
)

// Options configures an Engine. It has no settings today.
type Options struct{}

// lanes is the number of samples in a block: one YMM register of float64.
const lanes = 4

// Engine runs the cut classifier over a batch, four samples at a time, each
// sample in its own SIMD lane (see the package comment). It reads the model
// weights only (never mutates them), so one Engine may be shared across
// goroutines; the per-block scratch is pooled per call.
type Engine struct {
	m *nn.Model

	// denseWT is the dense weight matrix in k-major order
	// (denseWT[k*Classes+c] = DenseW[c*flat+k]), so one activation step
	// reads its Classes weights contiguously.
	denseWT []float64

	// nvar is the first of the trailing rows whose Mean and Std are
	// bit-equal across columns; rows [nvar, Rows) may be shared. It is
	// Rows when no trailing row qualifies.
	nvar int

	// avx reports whether the model's shape fits the AVX kernels.
	avx bool

	scratch sync.Pool // *scratch
}

// scratch holds one block's working storage, pooled across ForwardBatch
// and ForwardClasses calls. Element l of each lane group belongs to the
// block's sample l.
type scratch struct {
	xn     []float64 // Rows × Cols × lanes: normalised inputs
	xs     []float64 // Rows × lanes: one normalised value per shared row
	act    []float64 // Filters × Cols × lanes: post-ReLU conv output
	logits []float64 // Classes × lanes
	probs  []float64 // Classes: one near-tie lane's softmax (laneClass)
}

// NewEngine returns a batched backend over m.
func NewEngine(m *nn.Model, _ Options) *Engine {
	flat := m.Filters * m.Cols
	wT := make([]float64, flat*m.Classes)
	for c := 0; c < m.Classes; c++ {
		for k := 0; k < flat; k++ {
			wT[k*m.Classes+c] = m.DenseW[c*flat+k]
		}
	}
	nvar := m.Rows
	for nvar > 0 && columnUniform(m.Mean, nvar-1, m.Cols) && columnUniform(m.Std, nvar-1, m.Cols) {
		nvar--
	}
	return &Engine{m: m, denseWT: wT, nvar: nvar, avx: m.Cols == 10 && m.Classes == 10}
}

// columnUniform reports whether row i of the Rows × cols matrix v holds one
// value, compared bit for bit, in every column.
func columnUniform(v []float64, i, cols int) bool {
	row := v[i*cols : (i+1)*cols]
	first := math.Float64bits(row[0])
	var diff uint64
	for _, x := range row[1:] {
		diff |= math.Float64bits(x) ^ first
	}
	return diff == 0
}

// Classes implements Backend.
func (e *Engine) Classes() int { return e.m.Classes }

// InputLen implements Backend.
func (e *Engine) InputLen() int { return e.m.Rows * e.m.Cols }

// PredictBatch runs the whole slice as one batch, checking ctx once up
// front. It satisfies core.SLAP's Batcher hook for callers that want no
// pass-size bound and no per-pass metrics.
func (e *Engine) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.ForwardBatch(xs)
}

// ForwardBatch implements Backend: probabilities for every input, computed
// block by block (pack and normalise, conv + ReLU, dense, softmax).
func (e *Engine) ForwardBatch(xs [][]float64) ([][]float64, error) {
	m := e.m
	if len(xs) == 0 {
		return nil, nil
	}
	if err := e.checkInputs(xs); err != nil {
		return nil, err
	}
	sc := e.getScratch()
	defer e.scratch.Put(sc)

	// The output slab is handed to callers and so cannot be pooled.
	slab := make([]float64, len(xs)*m.Classes)
	out := make([][]float64, len(xs))
	for b := range out {
		out[b] = slab[b*m.Classes : (b+1)*m.Classes]
	}
	for lo := 0; lo < len(xs); lo += lanes {
		blk := xs[lo:min(lo+lanes, len(xs))]
		e.logitsBlock(blk, sc)
		for l := range blk {
			softmaxLane(sc.logits, l, out[lo+l])
		}
	}
	return out, nil
}

// ForwardClasses writes the class of every input, the one
// nn.Model.PredictClass returns, to classes[i]. It runs the blocks as
// ForwardBatch does and then takes each lane's class from its logits (see
// laneClass), with no output slab: on a warm engine it allocates nothing.
func (e *Engine) ForwardClasses(xs [][]float64, classes []int) error {
	if len(classes) < len(xs) {
		return shortClasses(len(classes), len(xs))
	}
	if len(xs) == 0 {
		return nil
	}
	if err := e.checkInputs(xs); err != nil {
		return err
	}
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	for lo := 0; lo < len(xs); lo += lanes {
		blk := xs[lo:min(lo+lanes, len(xs))]
		e.logitsBlock(blk, sc)
		for l := range blk {
			classes[lo+l] = laneClass(sc.logits, l, nearTie, sc.probs)
		}
	}
	return nil
}

// ClassifyBatch is ForwardClasses behind a ctx check up front, the
// classes-only twin of PredictBatch.
func (e *Engine) ClassifyBatch(ctx context.Context, xs [][]float64, classes []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.ForwardClasses(xs, classes)
}

func shortClasses(got, want int) error {
	return fmt.Errorf("infer: %d classes for %d inputs", got, want)
}

// checkInputs fails on the first input whose length is not Rows·Cols.
func (e *Engine) checkInputs(xs [][]float64) error {
	in := e.m.Rows * e.m.Cols
	for i, x := range xs {
		if len(x) != in {
			return fmt.Errorf("infer: input %d has length %d, want %d", i, len(x), in)
		}
	}
	return nil
}

// logitsBlock leaves the logits of blk, at most four inputs, in
// sc.logits: pack and normalise, conv + ReLU, dense.
func (e *Engine) logitsBlock(blk [][]float64, sc *scratch) {
	nvar := e.m.Rows
	if e.shares(blk) {
		nvar = e.nvar
	}
	e.pack(blk, sc, nvar)
	e.convBlock(sc, nvar)
	e.denseBlock(sc)
}

func (e *Engine) getScratch() *scratch {
	if sc, ok := e.scratch.Get().(*scratch); ok {
		return sc
	}
	m := e.m
	return &scratch{
		xn:     make([]float64, m.Rows*m.Cols*lanes),
		xs:     make([]float64, m.Rows*lanes),
		act:    make([]float64, m.Filters*m.Cols*lanes),
		logits: make([]float64, m.Classes*lanes),
		probs:  make([]float64, m.Classes),
	}
}

// shares reports whether every sample of blk holds column-uniform values,
// compared bit for bit, on the rows [nvar, Rows) whose normalisation is
// column-uniform. Their normalised values are then column-uniform too, so
// the block may take the shared-row path. Comparing bits keeps -0 apart
// from +0 and one NaN payload apart from another.
func (e *Engine) shares(blk [][]float64) bool {
	m := e.m
	if e.nvar == m.Rows {
		return false
	}
	for _, x := range blk {
		for i := e.nvar; i < m.Rows; i++ {
			if !columnUniform(x, i, m.Cols) {
				return false
			}
		}
	}
	return true
}

// pack normalises blk into the lane layout, position p of lane l at
// xn[p*lanes+l], with the per-sample expression (x[p] - Mean[p]) / Std[p].
// Rows [nvar, Rows) are shared: column 0's value, the same in every
// column, goes to xs[(i-nvar)*lanes+l] with one division per row and lane.
// Lanes past the end of the batch hold zeros.
func (e *Engine) pack(blk [][]float64, sc *scratch, nvar int) {
	m := e.m
	nv := nvar * m.Cols
	mean, std := m.Mean[:nv], m.Std[:nv]
	for l := 0; l < lanes; l++ {
		if l >= len(blk) {
			for p := range mean {
				sc.xn[p*lanes+l] = 0
			}
			for i := nvar; i < m.Rows; i++ {
				sc.xs[(i-nvar)*lanes+l] = 0
			}
			continue
		}
		x := blk[l]
		for p, v := range x[:nv] {
			sc.xn[p*lanes+l] = (v - mean[p]) / std[p]
		}
		for i := nvar; i < m.Rows; i++ {
			p := i * m.Cols
			sc.xs[(i-nvar)*lanes+l] = (x[p] - m.Mean[p]) / m.Std[p]
		}
	}
}

// convBlock computes the conv layer plus ReLU for one packed block into
// act, at act[(f*Cols+j)*lanes+l]: the flat activation index of the
// per-sample path, so the dense layer reads it as is. Every (column, lane)
// accumulator starts at ConvB[f] and adds w[i]·xn[i][j] in ascending row
// order; a shared row's product is formed once per lane and added to all
// Cols accumulators at that row's place.
func (e *Engine) convBlock(sc *scratch, nvar int) {
	m := e.m
	nshared := m.Rows - nvar
	if hasAVX && e.avx {
		convBlockAVX(&sc.xn[0], &sc.xs[0], &m.ConvW[0], &m.ConvB[0], &sc.act[0], m.Filters, m.Rows, nvar, nshared)
		return
	}
	cl := m.Cols * lanes
	for f := 0; f < m.Filters; f++ {
		w := m.ConvW[f*m.Rows : (f+1)*m.Rows]
		acc := sc.act[f*cl : (f+1)*cl]
		for k := range acc {
			acc[k] = m.ConvB[f]
		}
		for i := 0; i < nvar; i++ {
			wi := w[i]
			for k, x := range sc.xn[i*cl : (i+1)*cl] {
				acc[k] += wi * x
			}
		}
		for i := 0; i < nshared; i++ {
			wi := w[nvar+i]
			for l, x := range sc.xs[i*lanes : (i+1)*lanes] {
				p := wi * x
				for k := l; k < cl; k += lanes {
					acc[k] += p
				}
			}
		}
		for k, a := range acc {
			acc[k] = relu(a)
		}
	}
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// denseBlock computes one block's logits into logits[c*lanes+l]: every
// (class, lane) accumulator starts at DenseB[c] and adds DenseW[c][k]·act[k]
// in ascending k, as in the per-sample path.
func (e *Engine) denseBlock(sc *scratch) {
	m := e.m
	flat := m.Filters * m.Cols
	if hasAVX && e.avx {
		denseBlockAVX(&sc.act[0], &e.denseWT[0], &m.DenseB[0], &sc.logits[0], flat)
		return
	}
	for c, b := range m.DenseB {
		for l := 0; l < lanes; l++ {
			sc.logits[c*lanes+l] = b
		}
	}
	for k := 0; k < flat; k++ {
		a := sc.act[k*lanes : (k+1)*lanes]
		for c, w := range e.denseWT[k*m.Classes : (k+1)*m.Classes] {
			acc := sc.logits[c*lanes : (c+1)*lanes]
			for l, x := range a {
				acc[l] += w * x
			}
		}
	}
}

// softmaxLane fills out with the stable softmax of lane l's logits, using
// the same max-subtract / exp / normalise operation order as the
// per-sample path.
func softmaxLane(logits []float64, l int, out []float64) {
	maxv := math.Inf(-1)
	for c := range out {
		v := logits[c*lanes+l]
		out[c] = v
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for c, v := range out {
		out[c] = math.Exp(v - maxv)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// nearTie is how far below the top logit, as softmax computes v − max,
// every rival must lie for laneClass to take the top logit's class without
// the softmax. exp(−2^-40) is 2^13 ulps below 1, a gap that the rounding
// of exp and of the division by the sum cannot close. A closer rival can
// round to the top class's probability, and PredictClass then returns the
// earlier of the two classes: a third of the rivals 1 to 3 ulps away do
// (TestLaneClassNearTie).
const nearTie = -0x1p-40

// laneClass returns the class nn.Model.PredictClass gives lane l's logits:
// the first maximum of their softmax. When the top logit is finite and
// every rival's v − max is at most margin (nearTie), that is the first
// maximum of the logits, and no exp runs. Otherwise — a near or exact tie,
// a NaN, an infinite top logit — the lane's softmax goes to probs (Classes
// long) and ArgmaxClass takes its first maximum, as PredictClass does.
func laneClass(logits []float64, l int, margin float64, probs []float64) int {
	maxv, top := math.Inf(-1), 0
	for c := range probs {
		if v := logits[c*lanes+l]; v > maxv {
			maxv, top = v, c
		}
	}
	near := math.IsInf(maxv, 0)
	for c := 0; c < len(probs) && !near; c++ {
		near = c != top && !(logits[c*lanes+l]-maxv <= margin)
	}
	if !near {
		return top
	}
	softmaxLane(logits, l, probs)
	return ArgmaxClass(probs)
}

// ArgmaxClass is nn.Model.PredictClass's argmax over one probability
// vector: the first maximum, so ties go to the earlier class. Every path
// that classifies from probabilities takes its class here.
func ArgmaxClass(probs []float64) int {
	best, bi := math.Inf(-1), 0
	for c, p := range probs {
		if p > best {
			best, bi = p, c
		}
	}
	return bi
}
