package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "re-record the /metrics exposition file under testdata")

// scrape fetches the coordinator's /metrics text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// register joins one worker through the control plane.
func register(t *testing.T, base, name, url string) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{Name: name, URL: url})
	resp, err := http.Post(base+"/v1/workers/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %q answered %d", name, resp.StatusCode)
	}
}

// parseScrape splits a text exposition into its HELP and TYPE lines, in
// order, and its sample values keyed by series (name plus labels).
func parseScrape(t *testing.T, text string) (meta []string, samples map[string]string) {
	t.Helper()
	samples = make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			meta = append(meta, line)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[line[:i]] = line[i+1:]
	}
	return meta, samples
}

// TestMetricsExposition pins the coordinator's whole /metrics exposition
// over three stub workers: one fixed sequence (a shed on the empty fleet,
// affine routing, failed attempts that trip a breaker, a hedged read and a
// worker declared dead by probes) must reproduce the recorded HELP and
// TYPE lines, the recorded set of series and every value but the uptime.
func TestMetricsExposition(t *testing.T) {
	c, ts := newCoordinator(t, Config{
		ProbeInterval:    time.Hour, // probes run only when the test calls probeAll
		DeadAfter:        2,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
	})
	aag := rc16AAG(t)
	post := func(want int) {
		t.Helper()
		if resp, data := postCircuit(t, ts.URL+"/v1/map", aag); resp.StatusCode != want {
			t.Fatalf("map answered %d, want %d: %s", resp.StatusCode, want, data)
		}
	}
	post(http.StatusServiceUnavailable) // no workers yet: shed

	var mu sync.Mutex
	var failing, stalling string // workers whose maps answer 500, or never answer
	stubs := make(map[string]*httptest.Server)
	for i, name := range []string{"w1", "w2", "w3"} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `{"status":"ok","mapcache_entries":%d,"choice_views":%d}`, 2*(i+1), 3*(i+1))
		})
		mux.HandleFunc("POST /v1/map", func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			fail, stall := name == failing, name == stalling
			mu.Unlock()
			switch {
			case fail:
				http.Error(w, "injected failure", http.StatusInternalServerError)
			case stall:
				io.Copy(io.Discard, r.Body) // a drained body lets the server notice the hang-up
				<-r.Context().Done()
			default:
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, `{"worker":%q}`, name)
			}
		})
		stubs[name] = httptest.NewServer(mux)
		t.Cleanup(stubs[name].Close)
		register(t, ts.URL, name, stubs[name].URL)
	}
	c.probeAll()

	key, err := routeKey([]byte(aag), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	order := c.lookup(key)
	post(http.StatusOK) // affine worker
	post(http.StatusOK) // affine worker again
	mu.Lock()
	failing, stalling = order[0].name, order[2].name
	mu.Unlock()
	post(http.StatusOK) // affine fails, retried on the next replica
	post(http.StatusOK) // affine fails again and its breaker opens
	post(http.StatusOK) // hedged read: the next replica wins, the stalled arm is cancelled

	deadline := time.Now().Add(5 * time.Second)
	for busy := true; busy; {
		busy = false
		for _, s := range c.workerStatuses() {
			busy = busy || s.Inflight != 0
		}
		if busy && time.Now().After(deadline) {
			t.Fatal("hedge loser never released its in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}
	stubs[order[2].name].Close()
	c.probeAll()
	c.probeAll() // second failed probe: dead

	compareScrape(t, "testdata/metrics.prom", scrape(t, ts.URL), func(series string) bool {
		return series == "slap_fleet_uptime_seconds"
	})
}

// compareScrape checks a scrape against the recorded file: the HELP and
// TYPE lines in order, the set of series, and every value except those of
// timed series. With -update it records the scrape instead.
func compareScrape(t *testing.T, path, got string, timed func(string) bool) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recorded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta, want := parseScrape(t, string(recorded))
	gotMeta, gotSamples := parseScrape(t, got)
	if strings.Join(gotMeta, "\n") != strings.Join(wantMeta, "\n") {
		t.Errorf("HELP/TYPE lines differ:\ngot:\n%s\nwant:\n%s", strings.Join(gotMeta, "\n"), strings.Join(wantMeta, "\n"))
	}
	for series, v := range want {
		g, ok := gotSamples[series]
		switch {
		case !ok:
			t.Errorf("series %s missing", series)
		case g != v && !timed(series):
			t.Errorf("%s = %s, want %s", series, g, v)
		}
	}
	for series := range gotSamples {
		if _, ok := want[series]; !ok {
			t.Errorf("unexpected series %s", series)
		}
	}
}

// parseSample parses one sample line under the text exposition format's
// rules: a metric name, optional label pairs whose values escape only
// backslash, double quote and newline, then a value.
func parseSample(line string) (name string, labels map[string]string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, fmt.Errorf("no metric name in %q", line)
	}
	name, rest := line[:i], line[i:]
	labels = make(map[string]string)
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return "", nil, fmt.Errorf("bad label pair in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\n' {
					return "", nil, fmt.Errorf("raw newline in %q", line)
				}
				if c == '\\' {
					if rest == "" {
						return "", nil, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[0] {
					case '\\', '"':
						c = rest[0]
					case 'n':
						c = '\n'
					default:
						return "", nil, fmt.Errorf("escape \\%c is not in the format, in %q", rest[0], line)
					}
					rest = rest[1:]
				}
				v.WriteByte(c)
			}
			labels[key] = v.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		if rest == "" {
			return "", nil, fmt.Errorf("unterminated label set in %q", line)
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", nil, fmt.Errorf("no value in %q", line)
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return "", nil, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, labels, nil
}

// TestMetricsEscapeWorkerNames registers workers whose names need
// escaping. Every sample line must parse under the format's rules, and
// each per-worker family must carry exactly the registered names.
func TestMetricsEscapeWorkerNames(t *testing.T) {
	_, ts := newCoordinator(t, Config{ProbeInterval: time.Hour})
	names := []string{`back\slash`, `double"quote`, "new\nline", "tab\there", "ctl\x01byte", "w\toneé\u0001"}
	for _, n := range names {
		register(t, ts.URL, n, "http://127.0.0.1:1")
	}
	perWorker := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSuffix(scrape(t, ts.URL), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, err := parseSample(line)
		if err != nil {
			t.Error(err)
			continue
		}
		if w, ok := labels["worker"]; ok {
			perWorker[name] = append(perWorker[name], w)
		}
	}
	want := slices.Clone(names)
	slices.Sort(want)
	for _, family := range []string{"slap_fleet_worker_inflight", "slap_fleet_worker_cache_entries", "slap_fleet_worker_warm_views", "slap_fleet_breaker_state"} {
		got := perWorker[family]
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s carries workers %q, want %q", family, got, want)
		}
	}
}
