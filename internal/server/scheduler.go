package server

import (
	"context"
	"errors"
	"sync"

	"slap/internal/par"
)

// Scheduler errors, mapped to HTTP statuses by the front end.
var (
	// ErrQueueFull is returned when the bounded wait queue is at capacity
	// (HTTP 503: shed load rather than buffer unboundedly).
	ErrQueueFull = errors.New("server: scheduler queue full")
	// ErrClosed is returned for acquires after Close (HTTP 503: draining).
	ErrClosed = errors.New("server: scheduler closed")
)

// Scheduler enforces the global worker budget of the mapping service: each
// request borrows worker tokens before it may touch a core, so N concurrent
// mappings cannot oversubscribe GOMAXPROCS no matter what per-request
// Workers values clients ask for. Waiters queue FIFO (no starvation: the
// head waiter always gets the next released tokens) and the queue itself is
// bounded so overload degrades into fast 503s instead of latency collapse.
type Scheduler struct {
	mu       sync.Mutex
	budget   int
	inUse    int
	queueCap int
	waiters  []*waiter
	closed   bool
}

type waiter struct {
	want    int
	granted int
	ready   chan struct{} // closed once granted (or failed via err)
	err     error
}

// DefaultQueueCap bounds the wait queue when NewScheduler is given no cap.
const DefaultQueueCap = 64

// NewScheduler returns a scheduler with the given worker budget and queue
// capacity. budget <= 0 means GOMAXPROCS; queueCap <= 0 means
// DefaultQueueCap.
func NewScheduler(budget, queueCap int) *Scheduler {
	budget = par.Workers(budget)
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	return &Scheduler{budget: budget, queueCap: queueCap}
}

// Budget returns the total worker-token budget.
func (s *Scheduler) Budget() int { return s.budget }

// InFlight returns the number of worker tokens currently borrowed.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse
}

// QueueDepth returns the number of requests waiting for tokens.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// Acquire borrows want worker tokens, blocking in FIFO order until they are
// available, the queue is full, ctx is done, or the scheduler closes. A
// want of <= 0 asks for the whole budget (the "all cores" convention of the
// Workers knobs); any request is clamped to [1, budget]. On success it
// returns the granted token count and a release function that must be
// called exactly once, after the mapping work completes — releasing only
// then is what keeps the budget honest even when a request's HTTP handler
// has already timed out and returned.
func (s *Scheduler) Acquire(ctx context.Context, want int) (int, func(), error) {
	if want <= 0 || want > s.budget {
		want = s.budget
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, ErrClosed
	}
	// Fast path: tokens free and nobody queued ahead of us.
	if len(s.waiters) == 0 && s.inUse+want <= s.budget {
		s.inUse += want
		s.mu.Unlock()
		return want, s.releaseFunc(want), nil
	}
	if len(s.waiters) >= s.queueCap {
		s.mu.Unlock()
		return 0, nil, ErrQueueFull
	}
	w := &waiter{want: want, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return 0, nil, w.err
		}
		return w.granted, s.releaseFunc(w.granted), nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: hand the tokens back.
			s.mu.Unlock()
			if w.err == nil {
				s.releaseFunc(w.granted)()
			}
			return 0, nil, ctx.Err()
		default:
			s.removeLocked(w)
			s.mu.Unlock()
			return 0, nil, ctx.Err()
		}
	}
}

// releaseFunc returns the once-only release closure for granted tokens.
func (s *Scheduler) releaseFunc(granted int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.inUse -= granted
			s.notifyLocked()
			s.mu.Unlock()
		})
	}
}

// notifyLocked grants tokens to queued waiters in FIFO order while they fit.
func (s *Scheduler) notifyLocked() {
	for len(s.waiters) > 0 {
		head := s.waiters[0]
		if s.inUse+head.want > s.budget {
			return
		}
		s.inUse += head.want
		head.granted = head.want
		close(head.ready)
		s.waiters = s.waiters[1:]
	}
}

func (s *Scheduler) removeLocked(w *waiter) {
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Close fails all queued waiters with ErrClosed and rejects future
// acquires. Tokens already granted stay borrowed until their release runs —
// graceful drain lets in-flight mappings finish.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, w := range s.waiters {
		w.err = ErrClosed
		close(w.ready)
	}
	s.waiters = nil
}
