package server

import (
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record the /metrics exposition files under testdata")

// timedSeries reports whether a series' value depends on wall time. Those
// series are checked for presence only.
func timedSeries(series string) bool {
	for _, p := range []string{"slap_request_seconds", "slap_cuts_per_second", "slap_uptime_seconds", "slap_choice_build_seconds"} {
		if strings.HasPrefix(series, p) {
			return true
		}
	}
	return false
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

// TestMetricsExposition pins the whole /metrics exposition: one fixed
// request sequence must reproduce the recorded HELP and TYPE lines, the
// recorded set of series, and every recorded value that does not depend
// on wall time. One worker token keeps every count deterministic.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerBudget: 1, ResultCacheBytes: -1, ECO: true})
	rc16 := rc16Text(t)
	for _, step := range []struct {
		path string
		want int
	}{
		{"/v1/map?policy=default&verify=1", http.StatusOK},
		{"/v1/map?policy=default&verify=1", http.StatusOK}, // result-cache hit
		{"/v1/map?policy=slap&model=toy", http.StatusOK},
		{"/v1/map?policy=default&rounds=3", http.StatusOK},
		{"/v1/map?policy=default&target=lut&rounds=4", http.StatusOK},
		{"/v1/map?policy=slap&model=toy&choices=1&rounds=2", http.StatusOK},
		{"/v1/map?policy=slap&model=toy&choices=1&rounds=2&target=lut", http.StatusOK}, // view-cache hit
		{"/v1/classify?model=toy", http.StatusOK},
		{"/v1/map?policy=zzz", http.StatusBadRequest},
		{"/v1/map?policy=slap&model=zzz", http.StatusNotFound},
	} {
		if resp, data := postRaw(t, ts.URL+step.path, rc16); resp.StatusCode != step.want {
			t.Fatalf("%s: status %d, want %d: %s", step.path, resp.StatusCode, step.want, data)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	compareScrape(t, "testdata/metrics.prom", string(data), timedSeries)
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
