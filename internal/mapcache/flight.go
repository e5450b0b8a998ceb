package mapcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errLeaderPanicked is what the followers of a flight get when its
// leader's fn panicked; the panic itself goes on up the leader's stack.
var errLeaderPanicked = errors.New("mapcache: singleflight leader panicked")

// Flight is a generic singleflight group keyed by Key: the result cache's
// Serve, /v1/classify bursts per model and choice-view builds all
// deduplicate concurrent identical work through it. The zero value is not
// usable; call NewFlight.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[Key]*flightRes[V]
	// joined counts the times a call joined a flight already in progress.
	joined atomic.Int64
}

type flightRes[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlight builds an empty flight group.
func NewFlight[V any]() *Flight[V] {
	return &Flight[V]{m: make(map[Key]*flightRes[V])}
}

// Do executes fn under singleflight semantics: concurrent calls with the
// same key wait for the first caller (the leader) and share its value and
// error. shared reports whether this call reused another's result.
//
// A follower waits on its own ctx as well as on the flight, so it gives up
// (and returns ctx.Err()) when its own deadline passes. A leader that ended
// with a context error ran out of its own time, not the follower's: a
// follower whose ctx is still live runs the flight again. A panicking fn
// still closes its flight; its followers get an error.
func (f *Flight[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	for r, ok := f.m[k]; ok; r, ok = f.m[k] {
		f.joined.Add(1)
		f.mu.Unlock()
		select {
		case <-r.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if ctx.Err() != nil || !isContextErr(r.err) {
			return r.val, true, r.err
		}
		f.mu.Lock()
	}
	// The error stays errLeaderPanicked only if fn never returns.
	r := &flightRes[V]{done: make(chan struct{}), err: errLeaderPanicked}
	f.m[k] = r
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.m, k)
		f.mu.Unlock()
		close(r.done)
	}()
	r.val, r.err = fn()
	return r.val, false, r.err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Joined reports how many times so far a call has joined a flight already
// in progress instead of starting one.
func (f *Flight[V]) Joined() int64 { return f.joined.Load() }
