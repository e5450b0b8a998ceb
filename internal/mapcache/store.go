package mapcache

import (
	"container/list"
	"context"
	"sync"
)

// Store is a content-addressed, byte-budgeted LRU with a singleflight in
// front of its misses. It holds the one eviction rule and the one counting
// rule of the result cache and the choice-view cache: a hit is a lookup
// that finds its key or a call that shares a concurrent identical call's
// value, and a miss is a lookup inside the flight that finds nothing. Safe
// for concurrent use.
type Store[V any] struct {
	budget int64
	size   func(V) int64
	flight *Flight[V]

	mu                      sync.Mutex
	bytes                   int64
	ll                      *list.List // front = most recently used; values are *item[V]
	byKey                   map[Key]*list.Element
	hits, misses, evictions int64
}

type item[V any] struct {
	key   Key
	val   V
	bytes int64
}

// StoreStats is a point-in-time counter snapshot of a Store.
type StoreStats struct {
	// Hits counts lookups that found their key, including calls that
	// shared a concurrent identical call's fresh value.
	Hits int64
	// Misses counts lookups that found nothing under their key.
	Misses int64
	// Evictions counts values dropped to stay inside the byte budget.
	Evictions int64
	// Bytes is the current estimated resident size.
	Bytes int64
	// Entries is the current number of resident values.
	Entries int
}

// NewStore builds an empty store that keeps the summed size of its values,
// as size estimates them, within budget bytes.
func NewStore[V any](budget int64, size func(V) int64) *Store[V] {
	return &Store[V]{
		budget: budget,
		size:   size,
		flight: NewFlight[V](),
		ll:     list.New(),
		byKey:  make(map[Key]*list.Element),
	}
}

// Get returns the value stored under k, promoting it to most recently
// used. It counts a hit or a miss.
func (s *Store[V]) Get(k Key) (V, bool) { return s.lookup(k, true) }

// Hit is Get counting only hits. A caller that answers a hit itself and
// sends a miss on to Do leaves the miss to Do's own Get, so each request
// counts one hit or one miss.
func (s *Store[V]) Hit(k Key) (V, bool) { return s.lookup(k, false) }

func (s *Store[V]) lookup(k Key, countMiss bool) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[k]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*item[V]).val, true
	}
	if countMiss {
		s.misses++
	}
	return v, false
}

// Add stores v under k, replacing any previous value, and evicts least
// recently used values until the budget holds; the value just added always
// stays. A value larger than the whole budget is not stored.
func (s *Store[V]) Add(k Key, v V) {
	n := s.size(v)
	if n > s.budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[k]; ok {
		s.bytes -= el.Value.(*item[V]).bytes
		s.ll.Remove(el)
	}
	s.byKey[k] = s.ll.PushFront(&item[V]{key: k, val: v, bytes: n})
	s.bytes += n
	for s.bytes > s.budget && s.ll.Len() > 1 {
		old := s.ll.Remove(s.ll.Back()).(*item[V])
		delete(s.byKey, old.key)
		s.bytes -= old.bytes
		s.evictions++
	}
}

// Do returns the value stored under k, or else the one fill makes, which
// it stores. Get, fill and Add all run inside a singleflight on k, so a
// value added between a caller's miss and its flight claim is still found,
// and concurrent identical calls share one fill (Flight.Do says how
// followers treat their own contexts). A shared value counts as a hit.
// cached reports a stored or shared value.
func (s *Store[V]) Do(ctx context.Context, k Key, fill func() (V, error)) (v V, cached bool, err error) {
	got, shared, err := s.flight.Do(ctx, k, func() (V, error) {
		if v, ok := s.Get(k); ok {
			cached = true
			return v, nil
		}
		v, err := fill()
		if err == nil {
			s.Add(k, v)
		}
		return v, err
	})
	if err != nil {
		return v, false, err
	}
	if shared {
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
	}
	return got, cached || shared, nil
}

// Recent calls f on the resident values from most to least recently used
// until f returns false. It holds the store's lock throughout, so f must
// be quick and must not call back into the store.
func (s *Store[V]) Recent(f func(V) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.ll.Front(); el != nil; el = el.Next() {
		if !f(el.Value.(*item[V]).val) {
			return
		}
	}
}

// Stats returns the current counters.
func (s *Store[V]) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Bytes: s.bytes, Entries: s.ll.Len()}
}
