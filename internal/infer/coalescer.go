package infer

import (
	"context"
	"sync/atomic"
	"time"
)

// FlushStats describes one forward pass for observability hooks.
type FlushStats struct {
	// Size is the number of samples in the pass.
	Size int
	// QueueWait is always zero: a pass runs on the submitting goroutine as
	// soon as it is submitted.
	QueueWait time.Duration
}

// Collector receives one FlushStats per forward pass. PredictBatch and
// ClassifyBatch report from each caller's goroutine, so implementations
// must be safe for concurrent use; the server exports the batch-size
// histogram.
type Collector interface {
	ObserveFlush(FlushStats)
}

// CoalescerOptions configures a Coalescer.
type CoalescerOptions struct {
	// MaxBatch is the largest forward pass (0 = DefaultMaxBatch). A larger
	// submission is split into consecutive passes.
	MaxBatch int
	// AdaptiveWait has no effect: no pass waits for other submissions.
	AdaptiveWait bool
	// Collector, when set, observes every forward pass.
	Collector Collector
}

// DefaultMaxBatch is the default largest forward pass.
const DefaultMaxBatch = 64

// Coalescer runs PredictBatch and ClassifyBatch submissions through a
// shared Backend on the submitting goroutine, in forward passes of at most
// MaxBatch samples. Concurrent callers run their passes in parallel: a
// mapping worker hands over a whole node's cuts, which already fill many
// four-sample blocks, so holding them back to merge with other callers'
// would only add waiting.
type Coalescer struct {
	backend Backend
	opt     CoalescerOptions
	closed  atomic.Bool
}

// NewCoalescer returns a coalescer over backend.
func NewCoalescer(backend Backend, opt CoalescerOptions) *Coalescer {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = DefaultMaxBatch
	}
	return &Coalescer{backend: backend, opt: opt}
}

// Close marks the coalescer closed: calls already in PredictBatch or
// ClassifyBatch finish, later calls get ErrClosed. Safe to call more than
// once.
func (c *Coalescer) Close() { c.closed.Store(true) }

// PredictBatch classifies xs in passes of at most MaxBatch samples, in
// order, and returns one probability vector per input. It checks ctx before
// each pass and stops at the first cancellation or backend error. A
// submission that fits in one pass gets that pass's output as is.
func (c *Coalescer) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	var out [][]float64
	err := c.passes(ctx, len(xs), func(lo, hi int) error {
		probs, err := c.backend.ForwardBatch(xs[lo:hi])
		if err != nil {
			return err
		}
		if hi-lo == len(xs) {
			out = probs
			return nil
		}
		if out == nil {
			out = make([][]float64, 0, len(xs))
		}
		out = append(out, probs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ClassifyBatch writes the class of every input to classes[i], in the
// passes PredictBatch runs, each through the backend's ForwardClasses when
// it has one and through ForwardBatch and ArgmaxClass when not. Over an
// Engine it allocates nothing. A classes shorter than xs is an error.
func (c *Coalescer) ClassifyBatch(ctx context.Context, xs [][]float64, classes []int) error {
	if len(classes) < len(xs) {
		return shortClasses(len(classes), len(xs))
	}
	return c.passes(ctx, len(xs), func(lo, hi int) error {
		return forwardClasses(c.backend, xs[lo:hi], classes[lo:hi])
	})
}

// passes runs pass over the consecutive ranges [lo, hi) of n samples, at
// most MaxBatch each, in order. It checks ctx before each pass, reports
// each to the Collector, and stops at the first error.
func (c *Coalescer) passes(ctx context.Context, n int, pass func(lo, hi int) error) error {
	if c.closed.Load() {
		return ErrClosed
	}
	for lo := 0; lo < n; lo += c.opt.MaxBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+c.opt.MaxBatch, n)
		if err := pass(lo, hi); err != nil {
			return err
		}
		if c.opt.Collector != nil {
			c.opt.Collector.ObserveFlush(FlushStats{Size: hi - lo})
		}
	}
	return nil
}
