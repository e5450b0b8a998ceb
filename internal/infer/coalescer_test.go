package infer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend wraps a Backend and records every forward pass it sees.
type countingBackend struct {
	inner  Backend
	mu     sync.Mutex
	passes [][][]float64
	fail   atomic.Bool
	// onPass, when set, runs at the start of every pass; an error fails
	// the pass.
	onPass func() error
}

var errBackend = errors.New("backend exploded")

func (c *countingBackend) Classes() int  { return c.inner.Classes() }
func (c *countingBackend) InputLen() int { return c.inner.InputLen() }

func (c *countingBackend) ForwardBatch(xs [][]float64) ([][]float64, error) {
	c.mu.Lock()
	c.passes = append(c.passes, xs)
	c.mu.Unlock()
	if c.onPass != nil {
		if err := c.onPass(); err != nil {
			return nil, err
		}
	}
	if c.fail.Load() {
		return nil, errBackend
	}
	return c.inner.ForwardBatch(xs)
}

func (c *countingBackend) seen() [][][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][][]float64(nil), c.passes...)
}

// statsCollector records pass stats for assertions.
type statsCollector struct {
	mu    sync.Mutex
	stats []FlushStats
}

func (s *statsCollector) ObserveFlush(fs FlushStats) {
	s.mu.Lock()
	s.stats = append(s.stats, fs)
	s.mu.Unlock()
}

func (s *statsCollector) all() []FlushStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FlushStats(nil), s.stats...)
}

func newTestCoalescer(t *testing.T, opt CoalescerOptions) (*Coalescer, *countingBackend, Reference) {
	t.Helper()
	m := randomModel(5, 4, 8, 6, 77)
	ref := Reference{M: m}
	cb := &countingBackend{inner: NewEngine(m, Options{})}
	c := NewCoalescer(cb, opt)
	t.Cleanup(c.Close)
	return c, cb, ref
}

// TestCoalescerMatchesReference drives many producers through one coalescer
// and checks every caller gets exactly its own results, however its
// submission was split into passes.
func TestCoalescerMatchesReference(t *testing.T) {
	c, _, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 16})
	const producers = 8
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for iter := 0; iter < 30; iter++ {
				n := 1 + rng.Intn(40) // often larger than MaxBatch
				xs := randomBatch(ref.M, n, int64(p*1000+iter))
				got, err := c.PredictBatch(context.Background(), xs)
				if err != nil {
					errs <- err
					return
				}
				want, _ := ref.ForwardBatch(xs)
				for i := range xs {
					for cl := range want[i] {
						if got[i][cl] != want[i][cl] {
							errs <- fmt.Errorf("producer %d iter %d sample %d: results mixed up", p, iter, i)
							return
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCoalescerSplitsIntoPasses checks a call larger than MaxBatch runs
// ⌈n/MaxBatch⌉ passes over consecutive slices of its input, in order, and
// that the Collector sees each pass.
func TestCoalescerSplitsIntoPasses(t *testing.T) {
	col := &statsCollector{}
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8, Collector: col})
	xs := randomBatch(ref.M, 20, 1)
	if _, err := c.PredictBatch(context.Background(), xs); err != nil {
		t.Fatal(err)
	}
	passes := cb.seen()
	wantSizes := []int{8, 8, 4}
	if len(passes) != len(wantSizes) {
		t.Fatalf("backend saw %d passes, want %d", len(passes), len(wantSizes))
	}
	for i, p := range passes {
		if len(p) != wantSizes[i] || &p[0][0] != &xs[8*i][0] {
			t.Fatalf("pass %d has %d samples, want %d starting at sample %d",
				i, len(p), wantSizes[i], 8*i)
		}
	}
	stats := col.all()
	if len(stats) != len(wantSizes) {
		t.Fatalf("collector saw %d passes, want %d", len(stats), len(wantSizes))
	}
	for i, fs := range stats {
		if fs.Size != wantSizes[i] || fs.QueueWait != 0 {
			t.Fatalf("pass %d stats %+v, want size %d and no queue wait", i, fs, wantSizes[i])
		}
	}
}

// TestCoalescerConcurrentPasses checks that two callers run their passes at
// the same time: the backend holds each pass until both are inside it, and
// gives up after a timeout.
func TestCoalescerConcurrentPasses(t *testing.T) {
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8})
	met := make(chan struct{})
	var arrived atomic.Int32
	cb.onPass = func() error {
		if arrived.Add(1) == 2 {
			close(met)
		}
		select {
		case <-met:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the other caller's pass never started")
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 4, int64(p))); err != nil {
				t.Errorf("caller %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
}

// TestCoalescerCancelBetweenPasses cancels the context during the first
// pass of a three-pass call: the call must fail with the context's error
// and start no further pass.
func TestCoalescerCancelBetweenPasses(t *testing.T) {
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cb.onPass = func() error {
		cancel()
		return nil
	}
	if _, err := c.PredictBatch(ctx, randomBatch(ref.M, 20, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(cb.seen()); n != 1 {
		t.Fatalf("backend ran %d passes, want 1", n)
	}
}

// TestCoalescerStress is the -race workhorse: many producers, small passes,
// mid-flight cancellations, and a Close racing the tail of the traffic.
func TestCoalescerStress(t *testing.T) {
	m := randomModel(5, 4, 8, 6, 78)
	cb := &countingBackend{inner: NewEngine(m, Options{})}
	c := NewCoalescer(cb, CoalescerOptions{MaxBatch: 8})

	const producers = 12
	var wg sync.WaitGroup
	var served, canceled, closed atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for iter := 0; iter < 50; iter++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(3) == 0 {
					// A third of requests carry a deadline short enough to
					// fire before or between passes.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				xs := randomBatch(m, 1+rng.Intn(20), int64(iter))
				_, err := c.PredictBatch(ctx, xs)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					canceled.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(p)
	}
	// Close while traffic is still in flight on some runs.
	time.Sleep(2 * time.Millisecond)
	c.Close()
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no request was ever served")
	}
	t.Logf("served=%d canceled=%d closed=%d passes=%d",
		served.Load(), canceled.Load(), closed.Load(), len(cb.seen()))
}

// TestCoalescerBackendError checks an erroring backend fails the call at
// its first pass, and that the coalescer keeps serving once the backend
// recovers.
func TestCoalescerBackendError(t *testing.T) {
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8})
	cb.fail.Store(true)
	if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 20, 3)); !errors.Is(err, errBackend) {
		t.Fatalf("err = %v, want backend error", err)
	}
	if n := len(cb.seen()); n != 1 {
		t.Fatalf("backend ran %d passes after the first failed, want 1", n)
	}
	cb.fail.Store(false)
	if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 4, 4)); err != nil {
		t.Fatalf("coalescer did not recover after backend error: %v", err)
	}
}

// TestCoalescerClose closes the coalescer while a call is inside the
// backend: that call must complete, and every later call gets ErrClosed.
func TestCoalescerClose(t *testing.T) {
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8})
	entered, release := make(chan struct{}), make(chan struct{})
	cb.onPass = func() error {
		close(entered)
		<-release
		return nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 4, 5))
		done <- err
	}()
	<-entered
	c.Close()
	c.Close() // idempotent
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("call in flight at Close: err = %v, want it served", err)
	}
	if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 2, 6)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
	if n := len(cb.seen()); n != 1 {
		t.Fatalf("backend ran %d passes, want only the in-flight call's 1", n)
	}
}
