package mapcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	k := Key{7, 7}
	var computes, attempted atomic.Int64

	const callers = 8
	var wg sync.WaitGroup
	shares := make([]bool, callers)
	entries := make([]*Entry, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attempted.Add(1)
			e, shared, err := c.Do(k, func() (*Entry, error) {
				computes.Add(1)
				// Hold the flight open until every caller has at least
				// reached its Do call, so they all join this computation.
				for attempted.Load() < callers {
					runtime.Gosched()
				}
				time.Sleep(20 * time.Millisecond)
				e := testEntry(k, "s", 0)
				c.Add(e)
				return e, nil
			})
			if err != nil {
				t.Error(err)
			}
			shares[i], entries[i] = shared, e
		}(i)
	}
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for %d concurrent identical calls, want 1", got, callers)
	}
	leader := 0
	for i, s := range shares {
		if !s {
			leader++
		}
		if entries[i] != entries[0] {
			t.Fatal("callers did not share one entry")
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
	wantErr := errors.New("mapping exploded")
	_, shared, err := c.Do(Key{5, 5}, func() (*Entry, error) { return nil, wantErr })
	if shared || !errors.Is(err, wantErr) {
		t.Fatalf("leader got shared=%v err=%v", shared, err)
	}
	// The flight is gone afterwards: a retry runs fresh.
	e, shared, err := c.Do(Key{5, 5}, func() (*Entry, error) { return testEntry(Key{5, 5}, "s", 0), nil })
	if shared || err != nil || e == nil {
		t.Fatalf("retry got shared=%v err=%v", shared, err)
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
	best := c.Nearest("sig", query)
	if best == nil || best.Key != (Key{2, 2}) {
		t.Fatalf("Nearest returned %+v, want entry 2", best)
	}
	if c.Nearest("nosuchsig", query) != nil {
		t.Fatal("Nearest matched across signatures")
	}
	if c.Nearest("sig", query[:10]) == nil {
		// A short query fully contained in a baseline still overlaps 100%.
		t.Fatal("subset query found nothing")
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
			v, _, err := f.Do(Key{1, 1}, func() (string, error) {
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
