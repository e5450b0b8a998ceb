// Package infer is the batched inference engine of the SLAP flow: where
// internal/nn runs one 15×10 cut embedding at a time through triple-nested
// loops, this package packs B embeddings into matrices and runs the whole
// classifier — conv → ReLU → dense → softmax — as blocked GEMMs (Engine),
// and splits each caller's submission into bounded forward passes run on
// that caller's goroutine (Coalescer).
//
// The conv layer's 15×1 filters span all input rows, so the convolution over
// a batch is a single 128×15 by 15×(10·B) matmul; the dense layer is a
// 10×1280 by 1280×B matmul. Both kernels accumulate each output element in
// exactly the order the per-sample nn.Model forward pass does (bias first,
// then ascending k), so batched probabilities match the per-sample path to
// the last bit on every platform with consistent FP contraction — the
// golden-equivalence suite pins this against the Reference backend.
package infer

import (
	"errors"
	"fmt"

	"slap/internal/nn"
)

// ErrClosed is returned by Coalescer submissions after Close.
var ErrClosed = errors.New("infer: coalescer closed")

// Backend computes class probabilities for a batch of inputs. Engine is the
// production implementation; Reference delegates to the per-sample model
// forward pass and exists to prove batched backends equivalent.
//
// Backends must be safe for concurrent ForwardBatch calls: the Coalescer
// runs every caller's passes on that caller's goroutine.
type Backend interface {
	// Classes returns the output probability-vector length.
	Classes() int
	// InputLen returns the required flat input length (Rows·Cols).
	InputLen() int
	// ForwardBatch returns one probability vector per input. The returned
	// slices are freshly allocated and owned by the caller.
	ForwardBatch(xs [][]float64) ([][]float64, error)
}

// Reference is the golden Backend: every sample goes through the original
// per-sample nn.Model forward pass. Slow, obviously correct, and the
// equivalence baseline for every batched backend.
type Reference struct {
	M *nn.Model
}

// Classes implements Backend.
func (r Reference) Classes() int { return r.M.Classes }

// InputLen implements Backend.
func (r Reference) InputLen() int { return r.M.Rows * r.M.Cols }

// ForwardBatch implements Backend by calling Predict per sample.
func (r Reference) ForwardBatch(xs [][]float64) ([][]float64, error) {
	in := r.InputLen()
	out := make([][]float64, len(xs))
	for i, x := range xs {
		if len(x) != in {
			return nil, fmt.Errorf("infer: input %d has length %d, want %d", i, len(x), in)
		}
		out[i] = r.M.Predict(x)
	}
	return out, nil
}
