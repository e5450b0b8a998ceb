package mapcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/mapper"
	"slap/internal/netlist"
)

func testEntry(key Key, sig string, pad int) *Entry {
	return &Entry{
		Key:    key,
		Sig:    sig + string(make([]byte, pad)),
		Result: &mapper.Result{Netlist: netlist.New("t")},
	}
}

func TestKeyOfSensitivity(t *testing.T) {
	g1 := circuits.RandomAIG(1, 8, 100)
	g2 := circuits.RandomAIG(2, 8, 100)
	k1 := KeyOf(g1, "sig")
	if k1 != KeyOf(circuits.RandomAIG(1, 8, 100), "sig") {
		t.Fatal("identical graph+sig disagree on Key")
	}
	if k1 == KeyOf(g2, "sig") {
		t.Fatal("different graphs share a Key")
	}
	if k1 == KeyOf(g1, "other") {
		t.Fatal("different sigs share a Key")
	}
	// Renaming a PO must change the key: rendered netlists carry names.
	g3 := circuits.RandomAIG(1, 8, 100)
	g3.POs()[0].Name = "renamed"
	if k1 == KeyOf(g3, "sig") {
		t.Fatal("renamed PO shares a Key")
	}
}

func TestCacheHitMissAndPromotion(t *testing.T) {
	c := New(1 << 20)
	k := Key{1, 2}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Add(testEntry(k, "s", 0))
	e, ok := c.Get(k)
	if !ok || e.Key != k {
		t.Fatal("stored entry not returned")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats %+v, want 1 hit 1 miss 1 entry", st)
	}

	// Hit counts a hit and leaves a miss to the Serve that follows it, so
	// a request looked up first and then served counts once.
	if _, ok := c.Hit(Key{3, 4}); ok {
		t.Fatal("Hit found an absent key")
	}
	if e, ok := c.Hit(k); !ok || e.Key != k {
		t.Fatal("Hit missed the stored entry")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v after Hit, want 2 hits 1 miss", st)
	}
	g := circuits.RandomAIG(1, 8, 100)
	f := Flow{Sig: "s", Map: func(bool) (*mapper.Result, Snapshot, error) {
		return &mapper.Result{Netlist: netlist.New("t")}, nil, nil
	}}
	key := KeyOf(g, f.Sig)
	if _, ok := c.Hit(key); ok {
		t.Fatal("Hit found an unmapped graph")
	}
	if sv, err := c.Serve(context.Background(), g, key, f); err != nil || sv.Cached {
		t.Fatalf("serve after a missed Hit: %+v err %v", sv, err)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats %+v after a missed Hit and its Serve, want 2 hits 2 misses", st)
	}
}

func TestCacheLRUEvictionUnderByteBudget(t *testing.T) {
	// Each padded entry is ~1300 bytes; a 4000-byte budget holds three.
	pad := 1000
	probe := testEntry(Key{0, 0}, "s", pad)
	per := entryBytes(probe)
	c := New(3 * per)
	for i := uint64(1); i <= 3; i++ {
		c.Add(testEntry(Key{i, i}, "s", pad))
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 3 {
		t.Fatalf("stats %+v before overflow", st)
	}
	// Touch entry 1 so entry 2 is LRU, then overflow.
	if _, ok := c.Get(Key{1, 1}); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Add(testEntry(Key{4, 4}, "s", pad))
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v after overflow, want 1 eviction, 3 entries", st)
	}
	if _, ok := c.Get(Key{2, 2}); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := c.Get(Key{1, 1}); !ok {
		t.Fatal("recently used entry evicted")
	}
	if st := c.Stats(); st.Bytes > 3*per {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, 3*per)
	}

	// An entry bigger than the whole budget is refused outright.
	c.Add(testEntry(Key{9, 9}, "s", int(4*per)))
	if _, ok := c.Get(Key{9, 9}); ok {
		t.Fatal("over-budget entry was cached")
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := New(0)
	g := circuits.RandomAIG(1, 8, 100)
	var computes, attempted atomic.Int64

	const callers = 8
	flow := Flow{Sig: "s", Map: func(bool) (*mapper.Result, Snapshot, error) {
		computes.Add(1)
		// Hold the flight open until every caller has at least reached
		// its Serve call, so they all join this computation.
		for attempted.Load() < callers {
			runtime.Gosched()
		}
		time.Sleep(20 * time.Millisecond)
		return &mapper.Result{Netlist: netlist.New("t")}, nil, nil
	}}
	var wg sync.WaitGroup
	served := make([]Served, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attempted.Add(1)
			sv, err := serve(context.Background(), c, g, flow)
			if err != nil {
				t.Error(err)
			}
			served[i] = sv
		}(i)
	}
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for %d concurrent identical calls, want 1", got, callers)
	}
	leader := 0
	for _, sv := range served {
		if !sv.Cached {
			leader++
		}
		if sv.Result != served[0].Result {
			t.Fatal("callers did not share one result")
		}
	}
	if leader != 1 {
		t.Fatalf("%d leaders, want 1", leader)
	}
	// Followers count as hits: the mapping work was deduplicated away.
	if st := c.Stats(); st.Hits < callers-1 {
		t.Fatalf("hits=%d, want at least %d follower hits", st.Hits, callers-1)
	}
}

func TestSingleflightErrorPropagation(t *testing.T) {
	c := New(0)
	g := circuits.RandomAIG(1, 8, 100)
	wantErr := errors.New("mapping exploded")
	failing := Flow{Sig: "s", Map: func(bool) (*mapper.Result, Snapshot, error) { return nil, nil, wantErr }}
	if _, err := serve(context.Background(), c, g, failing); !errors.Is(err, wantErr) {
		t.Fatalf("leader got err=%v", err)
	}
	// Nothing was cached and the flight is gone: a retry runs fresh.
	ok := Flow{Sig: "s", Map: func(bool) (*mapper.Result, Snapshot, error) {
		return &mapper.Result{Netlist: netlist.New("t")}, nil, nil
	}}
	sv, err := serve(context.Background(), c, g, ok)
	if sv.Cached || err != nil || sv.Result == nil {
		t.Fatalf("retry got %+v err=%v", sv, err)
	}
}

// serve runs c.Serve under the key of (g, f.Sig), as the server does.
func serve(ctx context.Context, c *Cache, g *aig.AIG, f Flow) (Served, error) {
	return c.Serve(ctx, g, KeyOf(g, f.Sig), f)
}

// fakeFlow counts the calls Serve makes into one flow.
type fakeFlow struct {
	maps, captures, deltas, verifies int
	deltaOK                          bool
}

// flow maps to a fresh result; a capturing map snapshots base's cone
// hashes, so edits of base find the entry as their nearest relative.
func (ff *fakeFlow) flow(base *aig.AIG) Flow {
	return Flow{
		Sig: "sig",
		Map: func(capture bool) (*mapper.Result, Snapshot, error) {
			ff.maps++
			res := &mapper.Result{Netlist: netlist.New("cold")}
			if !capture {
				return res, nil, nil
			}
			ff.captures++
			return res, fakeSnap{hashes: base.ConeHashes()}, nil
		},
		Delta: func(Snapshot) (*mapper.Result, Snapshot, float64, bool) {
			ff.deltas++
			if !ff.deltaOK {
				return nil, nil, 0, false
			}
			return &mapper.Result{Netlist: netlist.New("delta")}, nil, 0.25, true
		},
		Verify: func(*mapper.Result) bool { ff.verifies++; return true },
	}
}

// TestServeFlow drives the cache front with fake flows: verify runs once
// per fresh result and never on a hit, a refused delta falls back to a
// cold map, an ECO result is cached, a flow without Delta captures no
// snapshot, and a nil cache runs Map and Verify only.
func TestServeFlow(t *testing.T) {
	c := New(0)
	ctx := context.Background()
	base := circuits.BoothMultiplier(4)
	ff := &fakeFlow{}
	f := ff.flow(base)

	sv, err := serve(ctx, c, base, f)
	if err != nil || sv.Cached || sv.ECO || !sv.Verified {
		t.Fatalf("cold serve %+v err %v", sv, err)
	}
	if ff.maps != 1 || ff.captures != 1 || ff.deltas != 0 || ff.verifies != 1 {
		t.Fatalf("cold serve ran %+v", *ff)
	}
	if sv, err = serve(ctx, c, base, f); err != nil || !sv.Cached || !sv.Verified || ff.maps != 1 || ff.verifies != 1 {
		t.Fatalf("repeat %+v err %v ran %+v, want a hit with no work", sv, err, *ff)
	}

	// A delta that refuses the snapshot falls back to a cold map.
	sv, err = serve(ctx, c, circuits.PerturbSpan(base, 7, 0.9, 1.0, 0.3), f)
	if err != nil || sv.ECO || sv.Cached || sv.Dirty != 0 {
		t.Fatalf("refused delta served %+v err %v", sv, err)
	}
	if ff.deltas != 1 || ff.maps != 2 || ff.verifies != 2 {
		t.Fatalf("refused delta ran %+v, want one delta then a cold map", *ff)
	}

	// An accepted delta is the answer, and it is cached.
	ff.deltaOK = true
	edit := circuits.PerturbSpan(base, 8, 0.9, 1.0, 0.3)
	sv, err = serve(ctx, c, edit, f)
	if err != nil || !sv.ECO || sv.Dirty != 0.25 || !sv.Verified {
		t.Fatalf("eco serve %+v err %v", sv, err)
	}
	if ff.deltas != 2 || ff.maps != 2 || ff.verifies != 3 {
		t.Fatalf("eco serve ran %+v", *ff)
	}
	sv, err = serve(ctx, c, edit, f)
	if err != nil || !sv.Cached || sv.ECO || ff.deltas != 2 || ff.verifies != 3 {
		t.Fatalf("eco resubmission %+v err %v ran %+v, want a hit", sv, err, *ff)
	}
	if st := c.Stats(); st.ECOHits != 1 || st.Entries != 3 || st.Snapshots != 2 {
		t.Fatalf("stats %+v, want 1 eco hit, 3 entries, 2 snapshots", st)
	}

	// Without Delta nothing reads a snapshot, so none is captured.
	f.Delta = nil
	if _, err := serve(ctx, c, circuits.RandomAIG(3, 8, 100), f); err != nil || ff.captures != 2 || c.Stats().Snapshots != 2 {
		t.Fatalf("delta-less flow captured: err %v ran %+v", err, *ff)
	}

	// A nil cache maps and verifies, nothing else.
	var none *Cache
	ff = &fakeFlow{deltaOK: true}
	for i := 0; i < 2; i++ {
		if sv, err = serve(ctx, none, base, ff.flow(base)); err != nil || sv.Cached || sv.ECO || !sv.Verified {
			t.Fatalf("nil-cache serve %+v err %v", sv, err)
		}
	}
	if ff.maps != 2 || ff.captures != 0 || ff.deltas != 0 || ff.verifies != 2 {
		t.Fatalf("nil-cache serves ran %+v, want two plain maps", *ff)
	}
}

type fakeSnap struct{ hashes []uint64 }

func (f fakeSnap) NodeHashes() []uint64 { return f.hashes }
func (f fakeSnap) SnapshotBytes() int64 { return int64(len(f.hashes)) * 8 }

func TestNearestPicksBestOverlap(t *testing.T) {
	c := New(0)
	mk := func(i uint64, overlapping int) *Entry {
		hs := make([]uint64, 100)
		for j := range hs {
			if j < overlapping {
				hs[j] = uint64(j) + 1000 // shared prefix
			} else {
				hs[j] = i<<32 + uint64(j) // private
			}
		}
		e := testEntry(Key{i, i}, "sig", 0)
		e.Snap = fakeSnap{hashes: hs}
		return e
	}
	c.Add(mk(1, 60))
	c.Add(mk(2, 90))
	c.Add(mk(3, 30)) // below minOverlap
	other := testEntry(Key{4, 4}, "othersig", 0)
	other.Snap = fakeSnap{hashes: []uint64{1000, 1001}}
	c.Add(other)

	query := make([]uint64, 100)
	for j := range query {
		query[j] = uint64(j) + 1000
	}
	best := c.nearest("sig", query)
	if best == nil || best.Key != (Key{2, 2}) {
		t.Fatalf("Nearest returned %+v, want entry 2", best)
	}
	if c.nearest("nosuchsig", query) != nil {
		t.Fatal("Nearest matched across signatures")
	}
	if c.nearest("sig", query[:10]) == nil {
		// A short query fully contained in a baseline still overlaps 100%.
		t.Fatal("subset query found nothing")
	}
}

// TestNearestWindow pins nearest's scan window: it weighs only the
// nearestScan most recently used entries that carry a snapshot under the
// request's signature. Entries under another signature and entries without
// a snapshot, interleaved with those, do not use up the window, and an
// older relative outside it is ignored however well it overlaps.
func TestNearestWindow(t *testing.T) {
	const n = 100
	query := make([]uint64, n)
	for j := range query {
		query[j] = uint64(j) + 1000
	}
	// snap shares the first `overlapping` hashes with query.
	snap := func(i uint64, overlapping int) fakeSnap {
		hs := make([]uint64, n)
		for j := range hs {
			hs[j] = i<<32 + uint64(j)
			if j < overlapping {
				hs[j] = query[j]
			}
		}
		return fakeSnap{hashes: hs}
	}
	c := New(0)
	// Ten relatives, oldest first: the two oldest overlap best but fall
	// outside the window, whose best is its oldest member, the third.
	overlaps := []int{95, 90, 80, 60, 60, 60, 60, 60, 60, 60}
	for i, ov := range overlaps {
		id := uint64(10 * (i + 1))
		e := testEntry(Key{id, id}, "sig", 0)
		e.Snap = snap(id, ov)
		c.Add(e)
		other := testEntry(Key{id + 1, id + 1}, "othersig", 0)
		other.Snap = snap(id+1, n)
		c.Add(other)
		c.Add(testEntry(Key{id + 2, id + 2}, "sig", 0))
	}
	if st := c.Stats(); st.Entries != 30 || st.Snapshots != 20 {
		t.Fatalf("stats %+v, want 30 entries, 20 snapshots", st)
	}
	if best := c.nearest("sig", query); best == nil || best.Key != (Key{30, 30}) {
		t.Fatalf("nearest returned %+v, want the third relative", best)
	}

	// Promoting the best-overlapping relative brings it into the window.
	if _, ok := c.Get(Key{10, 10}); !ok {
		t.Fatal("oldest relative was evicted")
	}
	if best := c.nearest("sig", query); best == nil || best.Key != (Key{10, 10}) {
		t.Fatalf("nearest returned %+v after promotion, want the first relative", best)
	}
}

func TestFlightGeneric(t *testing.T) {
	f := NewFlight[string]()
	var n, attempted atomic.Int64
	var wg sync.WaitGroup
	results := make([]string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attempted.Add(1)
			v, _, err := f.Do(context.Background(), Key{1, 1}, func() (string, error) {
				n.Add(1)
				for attempted.Load() < 4 {
					runtime.Gosched()
				}
				time.Sleep(20 * time.Millisecond)
				return fmt.Sprintf("computed-%d", n.Load()), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n.Load() != 1 {
		t.Fatalf("%d computations, want 1", n.Load())
	}
	if j := f.Joined(); j != 3 {
		t.Fatalf("Joined() = %d, want 3 (every caller but the leader)", j)
	}
	for _, r := range results {
		if r != "computed-1" {
			t.Fatalf("result %q not shared", r)
		}
	}
}

// TestFlightLeaderPanic pins that a panicking leader does not wedge its
// key: its follower gets an error, the panic goes on up the leader's
// stack, and a later call runs fresh.
func TestFlightLeaderPanic(t *testing.T) {
	f := NewFlight[int]()
	ctx := context.Background()
	k := Key{3, 3}
	entered, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		f.Do(ctx, k, func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, k, func() (int, error) { return 1, nil })
		followerErr <- err
	}()
	for f.Joined() == 0 {
		runtime.Gosched()
	}
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	select {
	case err := <-followerErr:
		if err == nil {
			t.Fatal("follower of a panicking leader got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower of a panicking leader still waits")
	}

	fresh := make(chan int, 1)
	go func() {
		v, _, _ := f.Do(ctx, k, func() (int, error) { return 2, nil })
		fresh <- v
	}()
	select {
	case v := <-fresh:
		if v != 2 {
			t.Fatalf("later call got %d, want its own 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after its leader panicked")
	}
}

// TestFlightFollowerContext pins that followers live by their own
// context: one whose deadline passes stops waiting, and a live one whose
// leader ended with a context error runs the flight itself.
func TestFlightFollowerContext(t *testing.T) {
	f := NewFlight[int]()
	k := Key{4, 4}
	entered, release, leaderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(leaderDone)
		f.Do(context.Background(), k, func() (int, error) {
			close(entered)
			<-release
			return 0, fmt.Errorf("leader: %w", context.DeadlineExceeded)
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, shared, err := f.Do(ctx, k, func() (int, error) { return 1, nil }); shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired follower got shared=%v err=%v, want its own deadline", shared, err)
	}

	got := make(chan int, 1)
	go func() {
		v, shared, err := f.Do(context.Background(), k, func() (int, error) { return 2, nil })
		if shared || err != nil {
			t.Errorf("live follower got shared=%v err=%v, want its own run", shared, err)
		}
		got <- v
	}()
	for f.Joined() < 2 {
		runtime.Gosched()
	}
	close(release)
	<-leaderDone
	select {
	case v := <-got:
		if v != 2 {
			t.Fatalf("live follower got %d, want its own 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live follower never ran the flight")
	}
}
