package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
)

func aagText(t *testing.T, g *aig.AIG) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// scrapeCounter reads one un-labelled counter/gauge value from /metrics.
func scrapeCounter(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, data)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMapResultCacheRepeat pins the result cache over HTTP: resubmitting
// the same circuit+options answers from the cache with byte-identical
// netlist payloads, for both the vanilla and the ML policy, and the
// mapcache counters surface on /metrics.
func TestMapResultCacheRepeat(t *testing.T) {
	_, ts := newTestServer(t, Config{ResultCacheBytes: -1, ECO: true})

	for _, tc := range []struct {
		name string
		req  map[string]any
	}{
		{"default", map[string]any{"circuit": rc16Text(t), "policy": "default", "netlist": "blif", "verify": true}},
		{"slap", map[string]any{"circuit": rc16Text(t), "policy": "slap", "model": "toy", "netlist": "blif", "verify": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/map", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var cold MapResponse
			if err := json.Unmarshal(data, &cold); err != nil {
				t.Fatal(err)
			}
			if cold.Cached || cold.ECO {
				t.Fatalf("first submission served from cache: %+v", cold)
			}
			if !cold.Verified || cold.Netlist == "" {
				t.Fatalf("first submission missing verify/netlist: %+v", cold)
			}

			resp, data = postJSON(t, ts.URL+"/v1/map", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var warm MapResponse
			if err := json.Unmarshal(data, &warm); err != nil {
				t.Fatal(err)
			}
			if !warm.Cached {
				t.Fatalf("resubmission not served from cache: %+v", warm)
			}
			if warm.Netlist != cold.Netlist || warm.Area != cold.Area || warm.Delay != cold.Delay {
				t.Fatal("cached response differs from cold response")
			}
			if !warm.Verified {
				t.Fatal("cached response lost the verify bit")
			}
		})
	}

	if hits := scrapeCounter(t, ts.URL, "slap_mapcache_hits"); hits < 2 {
		t.Fatalf("slap_mapcache_hits = %d, want >= 2", hits)
	}
	if misses := scrapeCounter(t, ts.URL, "slap_mapcache_misses"); misses < 2 {
		t.Fatalf("slap_mapcache_misses = %d, want >= 2", misses)
	}
	if b := scrapeCounter(t, ts.URL, "slap_mapcache_bytes"); b <= 0 {
		t.Fatalf("slap_mapcache_bytes = %d, want > 0", b)
	}
}

// TestMapResultCacheECO pins the server-side ECO for a mapper policy and
// for SLAP: after a baseline mapping is cached, submitting a locally
// edited variant is served by delta-remapping — the response says so, the
// dirty fraction is a proper fraction, the netlist is byte-identical to a
// cold map of the edit, slap_mapcache_eco_hits ticks, and the ECO result
// is itself cached.
func TestMapResultCacheECO(t *testing.T) {
	for _, tc := range []struct {
		policy string
		base   *aig.AIG
	}{
		{"default", circuits.BoothMultiplier(5)},
		// SLAP's delta also needs the edit to keep the graph depth, which
		// this late-span Booth-6 edit does.
		{"slap", circuits.BoothMultiplier(6)},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			_, ts := newTestServer(t, Config{ResultCacheBytes: -1, ECO: true})
			q := "policy=" + tc.policy + "&model=toy&netlist=blif&verify=1"
			edited := aagText(t, circuits.PerturbSpan(tc.base, 7, 0.9, 1.0, 0.3))
			mapQuery(t, ts.URL, q, aagText(t, tc.base))
			got := mapQuery(t, ts.URL, q, edited)
			if !got.ECO || got.Cached {
				t.Fatalf("edited submission not ECO-served: %+v", got)
			}
			if got.DirtyFraction <= 0 || got.DirtyFraction >= 1 {
				t.Fatalf("dirty fraction %v, want in (0, 1)", got.DirtyFraction)
			}
			if !got.Verified {
				t.Fatal("ECO response lost the verify bit")
			}

			// Byte-identity against a cold map on a server without a cache.
			_, cold := newTestServer(t, Config{})
			if want := mapQuery(t, cold.URL, q, edited); got.Netlist != want.Netlist || got.Area != want.Area || got.Delay != want.Delay {
				t.Fatal("ECO netlist differs from cold map of the edited design")
			}

			if eco := scrapeCounter(t, ts.URL, "slap_mapcache_eco_hits"); eco != 1 {
				t.Fatalf("slap_mapcache_eco_hits = %d, want 1", eco)
			}
			if n := scrapeCounter(t, ts.URL, "slap_eco_dirty_fraction_count"); n != 1 {
				t.Fatalf("slap_eco_dirty_fraction_count = %d, want 1", n)
			}

			// Resubmitting the edit is now an exact hit.
			if warm := mapQuery(t, ts.URL, q, edited); !warm.Cached || warm.ECO || warm.Netlist != got.Netlist {
				t.Fatalf("edited resubmission not an exact hit: cached=%v eco=%v", warm.Cached, warm.ECO)
			}
		})
	}
}

// mapQuery posts circuit to /v1/map with the given query and decodes the
// 200 answer.
func mapQuery(t *testing.T, url, query, circuit string) MapResponse {
	t.Helper()
	resp, data := postRaw(t, url+"/v1/map?"+query, circuit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, resp.StatusCode, data)
	}
	var mr MapResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestMapResultCacheRounds pins rounds in the cache key: the same design
// at rounds=1 and rounds=4 both miss, only the single-round entry carries
// an ECO snapshot, and resubmitting the multi-round request hits.
func TestMapResultCacheRounds(t *testing.T) {
	rc16 := rc16Text(t)
	for _, tc := range []struct{ name, query string }{
		{"default", "policy=default"},
		{"slap", "policy=slap&model=toy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{ResultCacheBytes: -1, ECO: true})
			if one := mapQuery(t, ts.URL, tc.query+"&rounds=1", rc16); one.Cached || one.RoundsRun != 0 {
				t.Fatalf("single-round submission: %+v", one)
			}
			four := mapQuery(t, ts.URL, tc.query+"&rounds=4", rc16)
			if four.Cached {
				t.Fatal("multi-round request was served the single-round cached result")
			}
			if four.RoundsRun != 4 || len(four.RoundStats) != 4 {
				t.Fatalf("multi-round QoR does not reflect the config: %+v", four)
			}
			if st := srv.cache.Stats(); st.Misses != 2 || st.Entries != 2 || st.Snapshots != 1 {
				t.Fatalf("cache stats %+v, want 2 misses, 2 entries, 1 snapshot", st)
			}
			if again := mapQuery(t, ts.URL, tc.query+"&rounds=4", rc16); !again.Cached || again.Area != four.Area {
				t.Fatal("equal multi-round resubmission missed the cache")
			}
		})
	}
}

// TestMapChoicesHitTakesNoView pins that a result-cache hit of a
// choices=1 mapping takes no choice view: with the view cache off, the
// repeat is answered from the result cache and builds no second view.
func TestMapChoicesHitTakesNoView(t *testing.T) {
	rc16 := rc16Text(t)
	_, ts := newTestServer(t, Config{ResultCacheBytes: -1, ChoiceCacheBytes: -1})
	first := mapQuery(t, ts.URL, "policy=default&choices=1", rc16)
	second := mapQuery(t, ts.URL, "policy=default&choices=1", rc16)
	if first.Cached || !second.Cached || second.Area != first.Area {
		t.Fatalf("cached: first %v, second %v", first.Cached, second.Cached)
	}
	if n := scrapeCounter(t, ts.URL, "slap_choice_builds_total"); n != 1 {
		t.Fatalf("slap_choice_builds_total = %d, want 1 (the hit built a view)", n)
	}
}

// TestMapChoiceBuildsMetered pins that every fresh choice view is
// metered, whatever the policy and target: with the view cache off, each
// choices=1 map builds its own view, and each build moves the build count
// and the proof outcomes.
func TestMapChoiceBuildsMetered(t *testing.T) {
	rc16 := rc16Text(t)
	_, ts := newTestServer(t, Config{ChoiceCacheBytes: -1})
	proved := `slap_choice_proofs_total\{outcome="proved"\}`
	mapQuery(t, ts.URL, "policy=default&choices=1", rc16)
	perBuild := scrapeCounter(t, ts.URL, proved)
	for i, q := range []string{"policy=slap&model=toy&choices=1", "policy=slap&model=toy&choices=1&target=lut"} {
		mapQuery(t, ts.URL, q, rc16)
		builds := int64(i + 2)
		if n := scrapeCounter(t, ts.URL, "slap_choice_builds_total"); n != builds {
			t.Fatalf("after %s: slap_choice_builds_total = %d, want %d", q, n, builds)
		}
		if n := scrapeCounter(t, ts.URL, proved); n != builds*perBuild {
			t.Fatalf("after %s: proved members = %d, want %d", q, n, builds*perBuild)
		}
	}
}

// TestMapNoSnapshotsWithoutECO pins that with ECO off cold maps capture
// no snapshot: nothing would read it, and it would take cache budget.
func TestMapNoSnapshotsWithoutECO(t *testing.T) {
	rc16 := rc16Text(t)
	srv, ts := newTestServer(t, Config{ResultCacheBytes: -1})
	mapQuery(t, ts.URL, "policy=default", rc16)
	mapQuery(t, ts.URL, "policy=slap&model=toy", rc16)
	if st := srv.cache.Stats(); st.Entries != 2 || st.Snapshots != 0 {
		t.Fatalf("cache stats %+v, want 2 entries and no snapshot", st)
	}
}

// TestClassifySingleflight pins the /v1/classify dedup: two concurrent
// identical submissions share one classification run. The fault hook holds
// the leading run open until the other submission has joined it, so the
// outcome does not depend on how long a classification takes.
func TestClassifySingleflight(t *testing.T) {
	srv, ts := newTestServer(t, Config{WorkerBudget: 4})
	srv.faultHook = func(endpoint string) {
		if endpoint != "classify run" {
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for srv.classify.Joined() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	var mu sync.Mutex
	var results []ClassifyResponse
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/classify", map[string]any{
				"circuit": rc16Text(t), "model": "toy", "workers": 1,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var cr ClassifyResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			results = append(results, cr)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	shared := 0
	for _, r := range results {
		if r.Shared {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("shared responses = %d, want exactly 1 (leader + follower)", shared)
	}
	if results[0].Cuts != results[1].Cuts || results[0].Nodes != results[1].Nodes {
		t.Fatalf("shared classifications differ: %+v vs %+v", results[0], results[1])
	}
}

// classifyStatus posts body to /v1/classify with the given query and
// returns the status code; unlike postRaw it is safe off the test
// goroutine.
func classifyStatus(url, body, query string) int {
	resp, err := http.Post(url+"/v1/classify?model=toy&workers=1&"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestClassifyLeaderPanicFreesKey pins that a panicking classification
// does not wedge its singleflight key: the request answers 500, and the
// next identical request runs, answers 200 and gives its token back.
func TestClassifyLeaderPanicFreesKey(t *testing.T) {
	rc16 := rc16Text(t)
	srv, ts := newTestServer(t, Config{WorkerBudget: 2})
	var fired atomic.Bool
	srv.faultHook = func(endpoint string) {
		if endpoint == "classify run" && fired.CompareAndSwap(false, true) {
			panic("injected fault in classify run")
		}
	}
	if got := classifyStatus(ts.URL, rc16, ""); got != http.StatusInternalServerError {
		t.Fatalf("panicking classification: status %d, want 500", got)
	}
	if got := classifyStatus(ts.URL, rc16, "timeout_ms=2000"); got != http.StatusOK {
		t.Fatalf("classification after a panicked leader: status %d, want 200", got)
	}
	waitFor(t, func() bool { return srv.Scheduler().InFlight() == 0 })
}

// TestClassifyFollowerOutlivesLeader pins that a follower lives by its own
// deadline: when the leader's 200 ms budget ends mid-run, a follower with
// 20 s left runs the classification itself and answers 200.
func TestClassifyFollowerOutlivesLeader(t *testing.T) {
	rc16 := rc16Text(t)
	srv, ts := newTestServer(t, Config{WorkerBudget: 4})
	var runs atomic.Int64
	srv.faultHook = func(endpoint string) {
		if endpoint != "classify run" || runs.Add(1) != 1 {
			return
		}
		// Hold the leader's run until the follower has joined and the
		// leader's own budget is spent.
		for deadline := time.Now().Add(5 * time.Second); srv.classify.Joined() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(300 * time.Millisecond)
	}
	leader := make(chan int, 1)
	go func() { leader <- classifyStatus(ts.URL, rc16, "timeout_ms=200") }()
	waitFor(t, func() bool { return runs.Load() == 1 })
	if got := classifyStatus(ts.URL, rc16, "timeout_ms=20000"); got != http.StatusOK {
		t.Fatalf("follower: status %d, want 200", got)
	}
	if got := <-leader; got != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d, want 504", got)
	}
}

// TestClassifyExpiredFollowerFreesToken pins that a follower whose own
// deadline passes stops waiting on the leader and gives its worker token
// back while the leader still runs.
func TestClassifyExpiredFollowerFreesToken(t *testing.T) {
	rc16 := rc16Text(t)
	srv, ts := newTestServer(t, Config{WorkerBudget: 4})
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.faultHook = func(endpoint string) {
		if endpoint != "classify run" {
			return
		}
		once.Do(func() { close(entered) })
		<-release
	}
	var freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(release) }) }
	defer free()
	leader := make(chan int, 1)
	go func() { leader <- classifyStatus(ts.URL, rc16, "") }()
	<-entered
	if got := classifyStatus(ts.URL, rc16, "timeout_ms=200"); got != http.StatusGatewayTimeout {
		t.Fatalf("follower: status %d, want 504", got)
	}
	waitFor(t, func() bool { return srv.Scheduler().InFlight() == 1 })
	free()
	if got := <-leader; got != http.StatusOK {
		t.Fatalf("leader: status %d, want 200", got)
	}
}

// TestMapHitWhileBudgetHeld pins that an exact result-cache hit is
// answered before the scheduler. While another mapping holds the whole
// one-token budget, a repeat answers from the cache at once, with
// queue_ms and workers 0 and the cold answer's netlist bytes, and a
// verify=1 repeat of the entry, cached without verify, runs the check.
// Once the scheduler drains, a hit still answers and a miss is refused.
func TestMapHitWhileBudgetHeld(t *testing.T) {
	rc16 := rc16Text(t)
	srv, ts := newTestServer(t, Config{WorkerBudget: 1, ResultCacheBytes: -1})
	q := "policy=default&netlist=blif"
	cold := mapQuery(t, ts.URL, q, rc16)

	hold := make(chan struct{})
	var freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(hold) }) }
	defer free()
	srv.faultHook = func(endpoint string) {
		if endpoint == "/v1/map" {
			<-hold
		}
	}
	holder := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/map?policy=unlimited", "text/plain", strings.NewReader(rc16))
		if err != nil {
			holder <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		holder <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.Scheduler().InFlight() == 1 })

	for _, verify := range []bool{false, true} {
		hit := mapQuery(t, ts.URL, q+"&timeout_ms=2000&verify="+strconv.FormatBool(verify), rc16)
		if !hit.Cached || hit.QueueMS != 0 || hit.Workers != 0 || hit.Verified != verify {
			t.Fatalf("verify=%v: repeat answered cached=%v queue_ms=%v workers=%d verified=%v, want a token-free hit",
				verify, hit.Cached, hit.QueueMS, hit.Workers, hit.Verified)
		}
		if hit.Netlist != cold.Netlist || hit.Area != cold.Area || hit.Delay != cold.Delay {
			t.Fatalf("verify=%v: hit differs from the cold answer", verify)
		}
		if n := srv.Scheduler().InFlight(); n != 1 {
			t.Fatalf("verify=%v: %d tokens in flight during the hit, want the holder's 1", verify, n)
		}
	}
	free()
	if code := <-holder; code != http.StatusOK {
		t.Fatalf("holding mapping: status %d", code)
	}
	waitFor(t, func() bool { return srv.Scheduler().InFlight() == 0 })

	srv.Scheduler().Close()
	if hit := mapQuery(t, ts.URL, q, rc16); !hit.Cached || hit.Netlist != cold.Netlist {
		t.Fatal("hit during the drain was not answered from the cache")
	}
	if resp, data := postRaw(t, ts.URL+"/v1/map?policy=shuffle", rc16); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("miss during the drain: status %d, want 503 (%s)", resp.StatusCode, data)
	}
}

// TestMapHitRacesWritesAndEvictions runs hits beside the writes and
// evictions of concurrent misses. Four clients send a seeded mix of
// exact repeats, late-span edits and cold designs, under default and
// slap, to a two-token server whose result cache holds only a few of the
// answers. Every answer must equal a cache-less cold map's, no token may
// stay borrowed, and the cache must stay inside its byte budget.
func TestMapHitRacesWritesAndEvictions(t *testing.T) {
	base := circuits.BoothMultiplier(4)
	designs := []string{aagText(t, base), rc16Text(t), aagText(t, circuits.CarryLookaheadAdder(8))}
	for seed := int64(1); seed <= 3; seed++ {
		designs = append(designs, aagText(t, circuits.PerturbSpan(base, seed, 0.9, 1.0, 0.3)))
	}
	queries := []string{"policy=default&netlist=blif", "policy=slap&model=toy&netlist=blif"}

	_, ref := newTestServer(t, Config{WorkerBudget: 2})
	want := make([][]MapResponse, len(designs))
	for d, design := range designs {
		for _, q := range queries {
			want[d] = append(want[d], mapQuery(t, ref.URL, q, design))
		}
	}

	// About 5 MB of answers, with ECO snapshots, against 1.5 MiB: the
	// largest answer fits, and the mix evicts.
	const budget = 3 << 19
	srv, ts := newTestServer(t, Config{WorkerBudget: 2, ResultCacheBytes: budget, ECO: true})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 12; i++ {
				d, q := rng.Intn(len(designs)), rng.Intn(len(queries))
				url := ts.URL + "/v1/map?" + queries[q] + "&verify=" + strconv.FormatBool(rng.Intn(2) == 0)
				resp, err := http.Post(url, "text/plain", strings.NewReader(designs[d]))
				if err != nil {
					t.Error(err)
					return
				}
				var got MapResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				switch w := want[d][q]; {
				case resp.StatusCode != http.StatusOK || err != nil:
					t.Errorf("design %d, %s: status %d, decode error %v", d, queries[q], resp.StatusCode, err)
				case got.Netlist != w.Netlist || got.Area != w.Area || got.Delay != w.Delay:
					t.Errorf("design %d, %s (cached=%v eco=%v): answer differs from a cold map's", d, queries[q], got.Cached, got.ECO)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := srv.Scheduler().InFlight(); n != 0 {
		t.Fatalf("%d tokens in flight at quiescence", n)
	}
	if st := srv.cache.Stats(); st.Bytes > budget || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("cache stats %+v: want bytes within %d, evictions and hits", st, budget)
	}
}
