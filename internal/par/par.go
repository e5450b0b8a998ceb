// Package par is the program's one fan-out: it spreads n independent items
// over a bounded set of goroutines, and it is where "0 workers" gets its
// meaning.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n, or GOMAXPROCS when n <= 0.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs visit(ctx, w, i) once for every i in [0, n), on at most
// Workers(workers) goroutines, the calling goroutine among them; w, in
// [0, that count), names the goroutine, so visits can index per-worker
// state. Goroutines claim the next unvisited index from a shared counter,
// so one that is slowed or descheduled (by the garbage collector, or
// another process on its core) holds up only the item it is on while the
// others finish the rest. Which goroutine takes an item must therefore
// never change the result: a visit writes only its own item's outputs and
// its own worker's state. The first error cancels the ctx the other visits
// hold, stops further claims and is returned; once the caller's ctx is
// done, For stops claiming and returns ctx.Err(). One worker, or one item,
// runs inline.
func For(ctx context.Context, n, workers int, visit func(ctx context.Context, w, i int) error) error {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := visit(ctx, 0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	// One struct holds all the shared state, so the parallel path
	// allocates it, the cancel context and one closure per goroutine,
	// whatever n is.
	f := &fanout{n: n, visit: visit}
	f.ctx, f.cancel = context.WithCancel(ctx)
	defer f.cancel()
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.work(w)
		}()
	}
	f.work(0)
	f.wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return f.err
}

// fanout is the state one parallel For shares between its goroutines.
type fanout struct {
	ctx    context.Context
	cancel context.CancelFunc
	visit  func(ctx context.Context, w, i int) error
	n      int
	next   atomic.Int64
	wg     sync.WaitGroup
	once   sync.Once
	err    error // the first visit error, set once
}

// work claims and visits items as worker w until none are left or the
// fan-out is canceled.
func (f *fanout) work(w int) {
	for f.ctx.Err() == nil {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		if err := f.visit(f.ctx, w, i); err != nil {
			f.once.Do(func() {
				f.err = err
				f.cancel()
			})
			return
		}
	}
}
