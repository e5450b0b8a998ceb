package mapcache

import (
	"sync"
	"sync/atomic"
)

// Flight is a standalone generic singleflight group keyed by Key, for
// deduplicating concurrent identical work that does not go through the
// result cache itself (e.g. classify bursts per model). The zero value is
// not usable; call NewFlight.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[Key]*flightRes[V]
	// joined counts the calls that shared a flight already in progress.
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
// same key block on the first caller and share its value and error. shared
// reports whether this call reused another's result.
func (f *Flight[V]) Do(k Key, fn func() (V, error)) (v V, shared bool, err error) {
	f.mu.Lock()
	if r, ok := f.m[k]; ok {
		f.joined.Add(1)
		f.mu.Unlock()
		<-r.done
		return r.val, true, r.err
	}
	r := &flightRes[V]{done: make(chan struct{})}
	f.m[k] = r
	f.mu.Unlock()

	r.val, r.err = fn()
	f.mu.Lock()
	delete(f.m, k)
	f.mu.Unlock()
	close(r.done)
	return r.val, false, r.err
}

// Joined reports how many calls so far have shared a flight already in
// progress instead of running fn themselves.
func (f *Flight[V]) Joined() int64 { return f.joined.Load() }
