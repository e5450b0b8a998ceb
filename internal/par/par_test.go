package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForStalledWorker checks the fan-out's balance: while one worker is
// stalled on the first item it claims, the other visits every remaining
// item, and every item is visited exactly once. Workers that each own a
// fixed share of the items would leave the stalled worker's share
// unvisited until the timeout.
func TestForStalledWorker(t *testing.T) {
	const n = 9
	visits := make([]atomic.Int32, n)
	var stalled atomic.Bool
	var rest atomic.Int32
	released := make(chan struct{})
	err := For(context.Background(), n, 2, func(_ context.Context, _, i int) error {
		visits[i].Add(1)
		if stalled.CompareAndSwap(false, true) {
			select {
			case <-released:
				return nil
			case <-time.After(5 * time.Second):
				return fmt.Errorf("only %d of the other %d items were visited while item %d stalled", rest.Load(), n-1, i)
			}
		}
		if rest.Add(1) == n-1 {
			close(released)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Fatalf("item %d visited %d times, want 1", i, v)
		}
	}
}

// TestForFirstErrorCancels checks that a visit blocked on its ctx returns
// once a sibling's visit fails, and that For returns that failure.
func TestForFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	blocked := make(chan struct{})
	err := For(context.Background(), 2, 2, func(ctx context.Context, _, i int) error {
		if i == 0 {
			close(blocked)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return errors.New("the blocked visit was never canceled")
			}
		}
		<-blocked
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("For returned %v, want %v", err, boom)
	}
}

// TestForDoneContext checks that a done ctx stops claims and that For
// returns ctx.Err(), on the inline and the parallel path.
func TestForDoneContext(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var visited, late atomic.Int32
		var canceled atomic.Bool
		err := For(ctx, 100, workers, func(context.Context, int, int) error {
			if canceled.Load() {
				late.Add(1)
			}
			if visited.Add(1) == 5 {
				cancel()
				canceled.Store(true)
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: For returned %v, want %v", workers, err, context.Canceled)
		}
		// Another worker may have claimed an item before the cancel
		// landed, but claims none after it.
		if l := late.Load(); l > int32(workers-1) {
			t.Fatalf("workers=%d: %d items visited after the cancel returned", workers, l)
		}
		if err := For(ctx, 10, workers, func(context.Context, int, int) error {
			t.Error("visited an item under a done ctx")
			return nil
		}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: For under a done ctx returned %v", workers, err)
		}
	}
}

// TestForWorkerIndexes checks that every w lies in [0, Workers(workers)),
// that workers <= 0 fans out over GOMAXPROCS goroutines, and that n = 0
// visits nothing.
func TestForWorkerIndexes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := Workers(0); got != 3 {
		t.Fatalf("Workers(0) = %d under GOMAXPROCS 3", got)
	}
	if got := Workers(-1); got != 3 {
		t.Fatalf("Workers(-1) = %d under GOMAXPROCS 3", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
	for _, workers := range []int{0, 1, 2, 4} {
		bound := Workers(workers)
		var bad atomic.Int32
		if err := For(context.Background(), 200, workers, func(_ context.Context, w, _ int) error {
			if w < 0 || w >= bound {
				bad.Store(int32(w) + 1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if b := bad.Load(); b != 0 {
			t.Fatalf("workers=%d: visit got w=%d, want [0,%d)", workers, b-1, bound)
		}
	}

	// workers = 0 runs GOMAXPROCS goroutines: three items that each wait
	// for all three to start can only finish on three distinct workers.
	var arrived atomic.Int32
	all := make(chan struct{})
	seen := make([]atomic.Bool, 3)
	if err := For(context.Background(), 3, 0, func(_ context.Context, w, _ int) error {
		seen[w].Store(true)
		if arrived.Add(1) == 3 {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("only %d of 3 items started together", arrived.Load())
		}
	}); err != nil {
		t.Fatal(err)
	}
	for w := range seen {
		if !seen[w].Load() {
			t.Fatalf("worker %d never ran", w)
		}
	}

	if err := For(context.Background(), 0, 4, func(context.Context, int, int) error {
		t.Error("visited an item of an empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func visitNothing(context.Context, int, int) error { return nil }

// TestForAllocs gates the fan-out's allocations: none inline, and on the
// parallel path the state struct, the cancel context and one closure per
// spawned goroutine, whatever n is.
func TestForAllocs(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{10, 1000} {
		for _, workers := range []int{1, 2, 4} {
			got := testing.AllocsPerRun(100, func() {
				if err := For(ctx, n, workers, visitNothing); err != nil {
					t.Fatal(err)
				}
			})
			want := 0
			if workers > 1 {
				want = 2 + workers
			}
			if got > float64(want) {
				t.Fatalf("n=%d workers=%d: %.1f allocations per call, want at most %d", n, workers, got, want)
			}
		}
	}
}
