// Package infer is the batched inference engine of the SLAP flow: where
// internal/nn runs one 15×10 cut embedding at a time, this package runs the
// whole classifier — conv → ReLU → dense → softmax — over a batch of
// embeddings (Engine), and splits each caller's submission into bounded
// forward passes run on that caller's goroutine (Coalescer).
//
// The engine works in blocks of four samples, one per lane of a YMM
// register of float64, and each lane carries its sample through exactly
// the operation sequence of nn.Model's forward pass. The conv layer keeps
// one accumulator per embedding column and the dense layer one per class,
// each starting from its bias and adding in ascending input order, so
// batched logits and probabilities match the per-sample path to the last
// bit on every platform with consistent FP contraction; the
// golden-equivalence suite pins this against the Reference backend. The
// nine cut-feature rows that embed.CutInto broadcasts across all columns
// are normalised and multiplied once per sample and filter, not once per
// column, whenever the model's normalisation and the block's inputs make
// that exact.
//
// The keep decision needs only each cut's class, so ClassifyBatch and
// ForwardClasses write classes into a caller-owned slice and skip the
// softmax: a lane's class is its top logit's unless a rival logit comes
// within a rounding margin of it, and then the lane takes the softmax and
// nn.Model.PredictClass's first-wins argmax (ArgmaxClass). Classes are
// thus PredictClass's on every input, and PredictBatch and ForwardBatch,
// which return probabilities, serve callers that wrap a Backend.
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

// classForwarder is a Backend that writes classes without probabilities,
// as Engine does. A Backend without it classifies through ForwardBatch.
type classForwarder interface {
	ForwardClasses(xs [][]float64, classes []int) error
}

// forwardClasses writes b's class for every input to classes[i]: by
// ForwardClasses when b has it, and otherwise by ArgmaxClass over
// ForwardBatch's probabilities.
func forwardClasses(b Backend, xs [][]float64, classes []int) error {
	if f, ok := b.(classForwarder); ok {
		return f.ForwardClasses(xs, classes)
	}
	probs, err := b.ForwardBatch(xs)
	if err != nil {
		return err
	}
	for i, p := range probs {
		classes[i] = ArgmaxClass(p)
	}
	return nil
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
