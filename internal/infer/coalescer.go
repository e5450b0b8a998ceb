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

// Collector receives one FlushStats per forward pass. PredictBatch reports
// from each caller's goroutine, so implementations must be safe for
// concurrent use; the server exports the batch-size histogram.
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

// Coalescer runs PredictBatch submissions through a shared Backend on the
// submitting goroutine, in forward passes of at most MaxBatch samples.
// Concurrent callers run their passes in parallel: a mapping worker hands
// over a whole node's cuts, which already fill many four-sample blocks, so
// holding them back to merge with other callers' would only add waiting.
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

// Close marks the coalescer closed: calls already in PredictBatch finish,
// later calls get ErrClosed. Safe to call more than once.
func (c *Coalescer) Close() { c.closed.Store(true) }

// PredictBatch classifies xs in passes of at most MaxBatch samples, in
// order, and returns one probability vector per input. It checks ctx before
// each pass and stops at the first cancellation or backend error. A
// submission that fits in one pass gets that pass's output as is.
func (c *Coalescer) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	n := len(xs)
	var out [][]float64
	for len(xs) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pass := xs[:min(len(xs), c.opt.MaxBatch)]
		probs, err := c.backend.ForwardBatch(pass)
		if err != nil {
			return nil, err
		}
		if c.opt.Collector != nil {
			c.opt.Collector.ObserveFlush(FlushStats{Size: len(pass)})
		}
		if len(pass) == n {
			return probs, nil
		}
		if out == nil {
			out = make([][]float64, 0, n)
		}
		out = append(out, probs...)
		xs = xs[len(pass):]
	}
	return out, nil
}
