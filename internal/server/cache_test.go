package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
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

// TestMapResultCacheECO pins the server-side ECO: after a baseline mapping
// is cached, submitting a locally edited variant is served by
// delta-remapping — the response says so, the dirty fraction is a proper
// fraction, the netlist is byte-identical to a cold map of the edit, and
// slap_mapcache_eco_hits ticks.
func TestMapResultCacheECO(t *testing.T) {
	_, ts := newTestServer(t, Config{ResultCacheBytes: -1, ECO: true})
	base := circuits.BoothMultiplier(5)
	edited := circuits.PerturbSpan(base, 7, 0.9, 1.0, 0.3)

	resp, data := postJSON(t, ts.URL+"/v1/map", map[string]any{
		"circuit": aagText(t, base), "policy": "default", "verify": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/map", map[string]any{
		"circuit": aagText(t, edited), "policy": "default", "netlist": "blif", "verify": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var got MapResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.ECO || got.Cached {
		t.Fatalf("edited submission not ECO-served: %+v", got)
	}
	if got.DirtyFraction <= 0 || got.DirtyFraction >= 1 {
		t.Fatalf("dirty fraction %v, want in (0, 1)", got.DirtyFraction)
	}
	if !got.Verified {
		t.Fatal("ECO response lost the verify bit")
	}

	// Byte-identity against a cold map of the same round-tripped graph.
	g2, err := aig.Decode(aig.FormatAAG, bytes.NewReader([]byte(aagText(t, edited))))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mapper.MapStream(g2, mapper.Options{Library: library.ASAP7ish(), Policy: cuts.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	if got.Netlist != buf.String() {
		t.Fatal("ECO netlist differs from cold map of the edited design")
	}

	if eco := scrapeCounter(t, ts.URL, "slap_mapcache_eco_hits"); eco != 1 {
		t.Fatalf("slap_mapcache_eco_hits = %d, want 1", eco)
	}
	if n := scrapeCounter(t, ts.URL, "slap_eco_dirty_fraction_count"); n != 1 {
		t.Fatalf("slap_eco_dirty_fraction_count = %d, want 1", n)
	}

	// Resubmitting the edit is now an exact hit.
	resp, data = postJSON(t, ts.URL+"/v1/map", map[string]any{
		"circuit": aagText(t, edited), "policy": "default", "netlist": "blif", "verify": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var warm MapResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Netlist != got.Netlist {
		t.Fatalf("edited resubmission not an exact hit: cached=%v", warm.Cached)
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
