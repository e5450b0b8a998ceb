package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// rc16Text returns the checked-in 16-bit ripple-carry adder AIGER source —
// the same artifact the CI smoke job curls at a live server.
func rc16Text(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/rc16.aag")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// newTestServer builds a server whose registry holds asap7ish plus a tiny
// deterministic model named "toy".
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		reg := NewRegistry()
		if err := reg.AddModel("toy", tinyModel(7), "test"); err != nil {
			t.Fatal(err)
		}
		cfg.Registry = reg
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestMapEndpointMatchesCLI is the acceptance parity check: mapping the
// 16-bit adder over POST /v1/map must produce exactly the area/delay the
// slap CLI flow computes on the same model/library, for both the vanilla
// default policy and the ML slap policy.
func TestMapEndpointMatchesCLI(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	g := circuits.TrainRC16()
	lib := library.ASAP7ish()

	t.Run("default", func(t *testing.T) {
		want, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/map", map[string]any{
			"circuit": rc16Text(t), "policy": "default",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var got MapResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Area != want.Area || got.Delay != want.Delay {
			t.Errorf("server mapped area=%v delay=%v, CLI flow area=%v delay=%v",
				got.Area, got.Delay, want.Area, want.Delay)
		}
		if got.Cells != want.Netlist.NumCells() {
			t.Errorf("server cells=%d, CLI flow cells=%d", got.Cells, want.Netlist.NumCells())
		}
	})

	t.Run("slap", func(t *testing.T) {
		model, err := srv.Registry().Model("toy")
		if err != nil {
			t.Fatal(err)
		}
		sl := core.New(model, lib)
		want, err := sl.MapStreamContext(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/map", map[string]any{
			"circuit": rc16Text(t), "policy": "slap", "model": "toy",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var got MapResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Area != want.Area || got.Delay != want.Delay {
			t.Errorf("server slap-mapped area=%v delay=%v, CLI flow area=%v delay=%v",
				got.Area, got.Delay, want.Area, want.Delay)
		}
		if got.Policy != "slap" {
			t.Errorf("policy = %q, want slap", got.Policy)
		}
	})
}

func TestMapRawBodyWithQueryParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRaw(t, ts.URL+"/v1/map?policy=unlimited&verify=1&netlist=blif", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var got MapResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Area <= 0 || got.Delay <= 0 {
		t.Errorf("implausible QoR: %+v", got)
	}
	if !got.Verified {
		t.Error("verify=1 did not run the equivalence check")
	}
	if got.NetlistFormat != "blif" || !strings.Contains(got.Netlist, ".model") {
		t.Errorf("netlist payload missing or wrong format: %q...", truncateStr(got.Netlist, 40))
	}
}

func TestMapLUTTarget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRaw(t, ts.URL+"/v1/map?policy=default&target=lut", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var got MapResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.LUTs <= 0 || got.Depth <= 0 {
		t.Errorf("implausible LUT mapping: %+v", got)
	}
}

// TestMapLUTVerify checks that verify=1 is honoured on the lut target:
// the LUT network is checked against the submitted circuit and the answer
// says so, for heuristic and ML policies, with and without choices.
func TestMapLUTVerify(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"policy=default&target=lut&verify=1",
		"policy=default&target=lut&verify=1&choices=1",
		"policy=slap&model=toy&target=lut&verify=1",
	} {
		resp, data := postRaw(t, ts.URL+"/v1/map?"+q, rc16Text(t))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, data)
		}
		var got MapResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Verified || got.LUTs <= 0 {
			t.Errorf("%s: verified=%v luts=%d, want a verified LUT network", q, got.Verified, got.LUTs)
		}
	}
	// Without verify=1 the answer must not claim a check that never ran.
	_, data := postRaw(t, ts.URL+"/v1/map?policy=default&target=lut", rc16Text(t))
	var got MapResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Verified {
		t.Error("unverified LUT request reported verified")
	}
}

// TestMapMultiRound drives the new /v1/map knobs end to end: a 4-round
// choices request (JSON and query-param forms, both targets, slap and
// default policies) answers per-round QoR, verifies against the submitted
// circuit, and the run lands in the slap_map_rounds / area-gain metrics.
func TestMapMultiRound(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, tc := range []struct {
		name string
		req  map[string]any
	}{
		{"asic-default", map[string]any{"policy": "default", "rounds": 4, "choices": true, "verify": true}},
		{"asic-slap", map[string]any{"policy": "slap", "model": "toy", "rounds": 4, "delay_factor": 1.1, "choices": true, "verify": true}},
		{"lut-slap", map[string]any{"policy": "slap", "model": "toy", "target": "lut", "rounds": 4, "choices": true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req["circuit"] = rc16Text(t)
			resp, data := postJSON(t, ts.URL+"/v1/map", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var got MapResponse
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			if got.RoundsRun != 4 || len(got.RoundStats) != 4 {
				t.Fatalf("missing per-round QoR: rounds_run=%d stats=%d", got.RoundsRun, len(got.RoundStats))
			}
			for i, st := range got.RoundStats {
				if st.Round != i+1 || st.Mode == "" {
					t.Fatalf("round stat %d malformed: %+v", i, st)
				}
			}
			if tc.req["verify"] == true && !got.Verified {
				t.Error("verify did not run against the submitted circuit")
			}
		})
	}

	// Query-param form of the same knobs.
	resp, data := postRaw(t, ts.URL+"/v1/map?policy=default&rounds=3&delay_factor=1.2&choices=true", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query form: status %d: %s", resp.StatusCode, data)
	}
	var got MapResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.RoundsRun != 3 {
		t.Fatalf("query form ran %d rounds, want 3", got.RoundsRun)
	}

	// The runs must show up in the new metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(mdata)
	for _, want := range []string{"slap_map_rounds_bucket", "slap_map_rounds_count", "slap_map_round_area_gain_count"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(text, "slap_map_rounds_count 0\n") {
		t.Error("slap_map_rounds histogram recorded nothing")
	}
	if strings.Contains(text, "slap_map_round_area_gain_count 0\n") {
		t.Error("area-gain histogram recorded nothing despite multi-round runs")
	}
}

func TestMapRequestLifecycleErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("oversized body", func(t *testing.T) {
		_, small := newTestServer(t, Config{MaxBodyBytes: 1024})
		big := strings.Repeat("x", 4096)
		resp, _ := postRaw(t, small.URL+"/v1/map", big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", resp.StatusCode)
		}
		// A JSON envelope over the limit is rejected the same way.
		resp, _ = postJSON(t, small.URL+"/v1/map", map[string]any{"circuit": big})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("json status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("malformed AIGER", func(t *testing.T) {
		resp, data := postRaw(t, ts.URL+"/v1/map", "aag 3 not a real header\n")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "aig") {
			t.Errorf("parse error not surfaced: %s", data)
		}
	})

	t.Run("undetectable format", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL+"/v1/map", "garbage body\n")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("empty body", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL+"/v1/map", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unknown model", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL+"/v1/map?policy=slap&model=zzz", rc16Text(t))
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("slap without model", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL+"/v1/map?policy=slap", rc16Text(t))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("unknown library", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL+"/v1/map?library=zzz", rc16Text(t))
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d, want 404", resp.StatusCode)
		}
	})

	for _, tc := range []struct{ name, query string }{
		{"unknown policy", "policy=zzz"},
		{"unknown target", "target=fpga"},
		{"unknown netlist", "netlist=edif"},
		{"unknown netlist on lut", "target=lut&netlist=edif"},
		{"rounds over the limit", "rounds=17"},
		{"NaN delay factor", "rounds=4&delay_factor=NaN"},
		{"infinite delay factor", "rounds=4&delay_factor=Inf"},
		{"negative limit", "policy=default&limit=-1"},
		{"negative limit on shuffle", "policy=shuffle&limit=-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postRaw(t, ts.URL+"/v1/map?"+tc.query, rc16Text(t))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400 (%s)", resp.StatusCode, data)
			}
		})
	}

	t.Run("json rounds over the limit", func(t *testing.T) {
		resp, data := postJSON(t, ts.URL+"/v1/map", map[string]any{"circuit": rc16Text(t), "rounds": core.MaxRounds + 1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400 (%s)", resp.StatusCode, data)
		}
	})

	t.Run("json negative limit", func(t *testing.T) {
		resp, data := postJSON(t, ts.URL+"/v1/map", map[string]any{"circuit": rc16Text(t), "policy": "default", "limit": -1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400 (%s)", resp.StatusCode, data)
		}
	})

	t.Run("json non-finite delay factor", func(t *testing.T) {
		// JSON has no NaN or Inf; an overflowing literal is the closest a
		// JSON client can send, and it must be refused the same way.
		body := `{"circuit": ` + strconv.Quote(rc16Text(t)) + `, "rounds": 4, "delay_factor": 1e999}`
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("rounds at the limit", func(t *testing.T) {
		resp, data := postRaw(t, ts.URL+"/v1/map?rounds=16&delay_factor=1.5", rc16Text(t))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d, want 200 (%s)", resp.StatusCode, data)
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/map")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/map status %d, want 405", resp.StatusCode)
		}
	})
}

// TestMapInvalidOptionsSkipQueue sends invalid options while another
// mapping holds the whole worker budget: each must be refused with 400 at
// once instead of queueing for a token.
func TestMapInvalidOptionsSkipQueue(t *testing.T) {
	srv, ts := newTestServer(t, Config{WorkerBudget: 1})
	hold := make(chan struct{})
	srv.faultHook = func(endpoint string) {
		if endpoint == "/v1/map" {
			<-hold
		}
	}
	done := make(chan int, 1)
	go func() {
		resp, _ := postRaw(t, ts.URL+"/v1/map", rc16Text(t))
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Scheduler().InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Scheduler().InFlight() == 0 {
		t.Fatal("the holding mapping never took the budget")
	}
	for _, q := range []string{"policy=zzz", "target=fpga", "netlist=edif", "rounds=1000", "rounds=4&delay_factor=NaN", "limit=-1"} {
		t0 := time.Now()
		resp, data := postRaw(t, ts.URL+"/v1/map?timeout_ms=3000&"+q, rc16Text(t))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", q, resp.StatusCode, data)
		}
		if d := time.Since(t0); d > time.Second {
			t.Errorf("%s: answered after %v, want an immediate refusal", q, d)
		}
	}
	close(hold)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("holding mapping: status %d", code)
	}
}

// TestMapTimeout maps a circuit large enough that a 1 ms deadline expires
// mid-flight and checks the request answers 504.
func TestMapTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := circuits.ArrayMultiplier(8).WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	resp, data := postRaw(t, ts.URL+"/v1/map?policy=unlimited&timeout_ms=1", buf.String())
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, data)
	}
}

// TestGracefulShutdown starts a real http.Server, fires a mapping, and
// shuts down while it is in flight: the mapping must complete with 200.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	// Wrap the handler to signal when the mapping request has actually
	// entered — sleeping instead races the listener close under -race.
	entered := make(chan struct{})
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/map" {
			once.Do(func() { close(entered) })
		}
		s.Handler().ServeHTTP(w, r)
	})
	hs := httptest.NewServer(h)
	// httptest.Server.Close blocks until outstanding requests finish — the
	// same drain semantics as http.Server.Shutdown on SIGTERM.
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	body := rc16Text(t)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/map?policy=default", "text/plain", strings.NewReader(body))
		if err != nil {
			done <- result{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: data}
	}()
	<-entered
	hs.Close()
	s.Close()
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight mapping during shutdown: status %d, body %s", r.status, r.body)
	}
	var got MapResponse
	if err := json.Unmarshal(r.body, &got); err != nil || got.Area <= 0 {
		t.Errorf("in-flight mapping returned bad payload: %s", r.body)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRaw(t, ts.URL+"/v1/classify?model=toy&detail=1", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var got ClassifyResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	g := circuits.TrainRC16()
	if got.Nodes != g.NumAnds() {
		t.Errorf("classified %d nodes, graph has %d AND nodes", got.Nodes, g.NumAnds())
	}
	sum := 0
	for _, c := range got.Histogram {
		sum += c
	}
	if sum != got.Cuts || sum == 0 {
		t.Errorf("histogram sums to %d, cuts = %d", sum, got.Cuts)
	}
	detailSum := 0
	for _, n := range got.Detail {
		detailSum += len(n.Classes)
	}
	if detailSum != got.Cuts {
		t.Errorf("detail lists %d cut classes, want %d", detailSum, got.Cuts)
	}

	t.Run("requires model", func(t *testing.T) {
		resp, _ := postRaw(t, ts.URL+"/v1/classify", rc16Text(t))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
}

func TestHealthzAndRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Errorf("healthz: status %d body %s", resp.StatusCode, data)
	}

	resp, err = http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(data), "toy") || !strings.Contains(string(data), DefaultLibrary) {
		t.Errorf("registry listing: status %d body %s", resp.StatusCode, data)
	}
}

// TestRegistryHotAdd saves a model to disk, hot-adds it over HTTP, and maps
// with it — the MapTune-style multi-configuration serving flow.
func TestRegistryHotAdd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	path := t.TempDir() + "/hot.gob"
	if err := tinyModel(11).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/registry/models", map[string]any{"path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot-add: status %d body %s", resp.StatusCode, data)
	}
	resp, data = postRaw(t, ts.URL+"/v1/map?policy=slap&model=hot", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map with hot-added model: status %d body %s", resp.StatusCode, data)
	}
	// Duplicate hot-add conflicts.
	resp, _ = postJSON(t, ts.URL+"/v1/registry/models", map[string]any{"path": path})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate hot-add: status %d, want 409", resp.StatusCode)
	}
	// Query-param form (the README curl one-liner) works too.
	resp, data = postRaw(t, ts.URL+"/v1/registry/models?name=hot2&path="+path, "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "hot2") {
		t.Errorf("query-param hot-add: status %d body %s", resp.StatusCode, data)
	}
	// Bad path surfaces the filename.
	resp, data = postJSON(t, ts.URL+"/v1/registry/models", map[string]any{"path": "/nonexistent/m.gob"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "m.gob") {
		t.Errorf("bad-path hot-add: status %d body %s", resp.StatusCode, data)
	}
}

// metricsGauge extracts one gauge value from Prometheus exposition text.
func metricsGauge(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("bad %s line %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestStressMixedEndpoints is the acceptance stress test: ≥8 concurrent
// mixed-endpoint requests against a 2-token budget, run under -race in CI.
// The worker budget is observed via the /metrics inflight/queue gauges and
// via the scheduler gauges sampled concurrently.
func TestStressMixedEndpoints(t *testing.T) {
	const budget = 2
	srv, ts := newTestServer(t, Config{WorkerBudget: budget, QueueCap: 64})
	rc16 := rc16Text(t)

	var overBudget atomic.Int64
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if inflight := srv.Scheduler().InFlight(); inflight > budget {
				overBudget.Store(int64(inflight))
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				text := string(data)
				if v := metricsGauge(t, text, "slap_inflight_workers"); v > budget {
					overBudget.Store(int64(v))
				}
				_ = metricsGauge(t, text, "slap_queue_depth")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	type job struct {
		name string
		run  func(i int) error
	}
	jobs := []job{
		{"map-default", func(i int) error {
			resp, data := postRaw(t, ts.URL+fmt.Sprintf("/v1/map?policy=default&workers=%d", 1+i%4), rc16)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("map-default: %d %s", resp.StatusCode, data)
			}
			return nil
		}},
		{"map-slap", func(i int) error {
			resp, data := postJSON(t, ts.URL+"/v1/map", map[string]any{
				"circuit": rc16, "policy": "slap", "model": "toy", "workers": 2,
			})
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("map-slap: %d %s", resp.StatusCode, data)
			}
			return nil
		}},
		{"classify", func(i int) error {
			resp, data := postRaw(t, ts.URL+"/v1/classify?model=toy&workers=3", rc16)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("classify: %d %s", resp.StatusCode, data)
			}
			return nil
		}},
		{"map-lut", func(i int) error {
			resp, data := postRaw(t, ts.URL+"/v1/map?policy=default&target=lut&workers=1", rc16)
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("map-lut: %d %s", resp.StatusCode, data)
			}
			return nil
		}},
		{"healthz", func(i int) error {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				return err
			}
			resp.Body.Close()
			return nil
		}},
		{"registry", func(i int) error {
			resp, err := http.Get(ts.URL + "/v1/registry")
			if err != nil {
				return err
			}
			resp.Body.Close()
			return nil
		}},
	}

	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(jobs))
	for r := 0; r < rounds; r++ {
		for ji, j := range jobs {
			wg.Add(1)
			go func(r, ji int, j job) {
				defer wg.Done()
				if err := j.run(r*len(jobs) + ji); err != nil {
					errs <- err
				}
			}(r, ji, j)
		}
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := overBudget.Load(); v != 0 {
		t.Errorf("observed %d inflight workers, budget is %d", v, budget)
	}

	// After the storm: gauges back to idle, counters recorded the traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	if v := metricsGauge(t, text, "slap_inflight_workers"); v != 0 {
		t.Errorf("slap_inflight_workers = %v after drain, want 0", v)
	}
	if v := metricsGauge(t, text, "slap_queue_depth"); v != 0 {
		t.Errorf("slap_queue_depth = %v after drain, want 0", v)
	}
	if v := metricsGauge(t, text, "slap_worker_budget"); v != budget {
		t.Errorf("slap_worker_budget = %v, want %d", v, budget)
	}
	if v := metricsGauge(t, text, "slap_cuts_considered_total"); v <= 0 {
		t.Errorf("slap_cuts_considered_total = %v, want > 0", v)
	}
	if !strings.Contains(text, `slap_requests_total{endpoint="/v1/map",code="200"}`) {
		t.Errorf("per-endpoint request counter missing from metrics:\n%s", text)
	}
}

func truncateStr(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// TestInferBatchMetricsExported drives classification and slap mapping with
// the default batched inference enabled and checks every forward pass
// reaches the /metrics batch-size histogram.
func TestInferBatchMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postRaw(t, ts.URL+"/v1/classify?model=toy", rc16Text(t))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("classify: status %d (%s)", resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	resp, data := postRaw(t, ts.URL+"/v1/map?policy=slap&model=toy", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map: status %d (%s)", resp.StatusCode, data)
	}

	respM, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(respM.Body)
	respM.Body.Close()
	text := string(body)

	for _, want := range []string{
		`slap_infer_batch_size_bucket{le="1"}`,
		`slap_infer_batch_size_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if v := metricsGauge(t, text, "slap_infer_batch_size_count"); v <= 0 {
		t.Errorf("slap_infer_batch_size_count = %v, want > 0 after batched inference", v)
	}
	if v := metricsGauge(t, text, "slap_infer_batch_size_sum"); v <= 0 {
		t.Errorf("slap_infer_batch_size_sum = %v, want > 0", v)
	}
}

// TestStreamingServerParity maps rc16 and a larger design alternately
// through the default server, whose streaming pipeline lends its pooled
// cut arena from each map to the next whatever the design, and through one
// with the pool disabled, which maps on a fresh arena. Every answer must
// carry identical mapping figures and netlist bytes — the HTTP-level view
// of the pipeline's byte-identity guarantee. It then checks the arena pool
// and peak-cut telemetry on /metrics: one arena serves every map.
func TestStreamingServerParity(t *testing.T) {
	_, stream := newTestServer(t, Config{})
	_, unpooled := newTestServer(t, Config{ArenaCache: -1})
	designs := []string{rc16Text(t), aagText(t, circuits.BoothMultiplier(8))}
	mapOn := func(url, circuit string) MapResponse {
		t.Helper()
		body := map[string]any{"circuit": circuit, "policy": "default", "netlist": "blif", "verify": true}
		resp, data := postJSON(t, url+"/v1/map", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("map on %s: status %d (%s)", url, resp.StatusCode, data)
		}
		var got MapResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	peak := 0
	for i := 0; i < 4; i++ {
		d := designs[i%len(designs)]
		got, ref := mapOn(stream.URL, d), mapOn(unpooled.URL, d)
		if got.Area != ref.Area || got.Delay != ref.Delay || got.Cells != ref.Cells ||
			got.CutsConsidered != ref.CutsConsidered || got.MatchAttempts != ref.MatchAttempts ||
			got.PeakCuts != ref.PeakCuts || got.Netlist != ref.Netlist {
			t.Errorf("map %d: pooled response diverged from unpooled: %+v vs %+v", i, got, ref)
		}
		if got.PeakCuts <= 0 {
			t.Errorf("map %d: streaming PeakCuts = %d, want > 0", i, got.PeakCuts)
		}
		if !got.Verified {
			t.Errorf("map %d: streaming mapping did not verify", i)
		}
		peak = max(peak, got.PeakCuts)
	}

	respM, err := http.Get(stream.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(respM.Body)
	respM.Body.Close()
	if v := metricsGauge(t, string(text), "slap_arena_misses_total"); v != 1 {
		t.Errorf("slap_arena_misses_total = %v, want 1 (one arena lent to both designs)", v)
	}
	if v := metricsGauge(t, string(text), "slap_arena_hits_total"); v != 3 {
		t.Errorf("slap_arena_hits_total = %v, want 3", v)
	}
	if v := metricsGauge(t, string(text), "slap_arena_cached"); v != 1 {
		t.Errorf("slap_arena_cached = %v, want 1", v)
	}
	if v := metricsGauge(t, string(text), "slap_peak_live_cuts"); int(v) != peak {
		t.Errorf("slap_peak_live_cuts = %v, want %d", v, peak)
	}
}

// TestStreamingLUTAndSlapParity covers the remaining policy x target routes:
// the lut target and the ML slap policy must agree between the pooled and
// unpooled servers too.
func TestStreamingLUTAndSlapParity(t *testing.T) {
	srvA, stream := newTestServer(t, Config{})
	_, unpooled := newTestServer(t, Config{ArenaCache: -1, Registry: srvA.Registry()})
	for _, body := range []map[string]any{
		{"circuit": rc16Text(t), "policy": "default", "target": "lut"},
		{"circuit": rc16Text(t), "policy": "shuffle", "seed": 5, "workers": 2},
		{"circuit": rc16Text(t), "policy": "slap", "model": "toy"},
		{"circuit": rc16Text(t), "policy": "slap", "model": "toy", "target": "lut"},
	} {
		resp, data := postJSON(t, stream.URL+"/v1/map", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("streaming %v: status %d (%s)", body["policy"], resp.StatusCode, data)
		}
		var got MapResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		resp, data = postJSON(t, unpooled.URL+"/v1/map", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unpooled %v: status %d (%s)", body["policy"], resp.StatusCode, data)
		}
		var ref MapResponse
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatal(err)
		}
		if got.Area != ref.Area || got.Delay != ref.Delay || got.LUTs != ref.LUTs ||
			got.Depth != ref.Depth || got.CutsConsidered != ref.CutsConsidered {
			t.Errorf("%v target=%v: pooled %+v diverged from unpooled %+v",
				body["policy"], body["target"], got, ref)
		}
	}
}
