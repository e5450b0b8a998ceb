package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/circuits"
	"slap/internal/server"
)

// rc16AAG renders the 16-bit ripple-carry adder as AIGER text — the test
// design whose structural hash drives affinity routing.
func rc16AAG(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	if err := circuits.TrainRC16().WriteAAG(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// newWorker boots one real mapping worker named name.
func newWorker(t *testing.T, name string) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(server.Config{WorkerName: name, ResultCacheBytes: 16 << 20})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// newCoordinator boots a coordinator over the given fleet config with a
// fast probe cadence.
func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 2
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func postCircuit(t *testing.T, url, body string) (*http.Response, []byte) {
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

// TestProxyAffinityCacheAndFailover is the fleet acceptance path: the same
// design routes to the same worker (whose result cache then answers the
// resubmission), and killing that worker fails the next resubmission over
// to the surviving replica.
func TestProxyAffinityCacheAndFailover(t *testing.T) {
	_, w1 := newWorker(t, "w1")
	_, w2 := newWorker(t, "w2")
	c, ts := newCoordinator(t, Config{
		Workers: []StaticWorker{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}},
	})
	aag := rc16AAG(t)

	var first server.MapResponse
	resp, data := postCircuit(t, ts.URL+"/v1/map?policy=default", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first map: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Worker != "w1" && first.Worker != "w2" {
		t.Fatalf("first map served by %q, want a fleet worker", first.Worker)
	}
	if got := resp.Header.Get("X-Slap-Worker"); got != first.Worker {
		t.Errorf("X-Slap-Worker header %q disagrees with response body worker %q", got, first.Worker)
	}
	if first.Cached {
		t.Error("first map reported cached:true on a cold fleet")
	}

	// Hash affinity: the resubmission must land on the same worker and be
	// answered from its result cache.
	var second server.MapResponse
	resp, data = postCircuit(t, ts.URL+"/v1/map?policy=default", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.Worker != first.Worker {
		t.Errorf("resubmission routed to %q, first request to %q: affinity broken", second.Worker, first.Worker)
	}
	if !second.Cached {
		t.Error("resubmission on the affine worker was not served from its result cache")
	}
	if second.Area != first.Area || second.Delay != first.Delay {
		t.Errorf("cached mapping differs: area %v/%v delay %v/%v", second.Area, first.Area, second.Delay, first.Delay)
	}

	// Kill the affine worker; the same design must drain to the survivor.
	if first.Worker == "w1" {
		w1.Close()
	} else {
		w2.Close()
	}
	var third server.MapResponse
	resp, data = postCircuit(t, ts.URL+"/v1/map?policy=default", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill map: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &third); err != nil {
		t.Fatal(err)
	}
	if third.Worker == first.Worker {
		t.Errorf("post-kill request still reports dead worker %q", third.Worker)
	}
	if third.Area != first.Area || third.Delay != first.Delay {
		t.Errorf("failover mapping differs: area %v/%v delay %v/%v", third.Area, first.Area, third.Delay, first.Delay)
	}
	if got := c.metrics.retries.Value(); got < 1 {
		t.Errorf("slap_fleet_retries_total = %v after failover, want >= 1", got)
	}
}

// TestProxyRelaysInvalidOptions sends options a worker refuses through the
// coordinator to two real workers: each 400 is the client's problem, so it
// must be relayed after one attempt with no retry on the other replica.
func TestProxyRelaysInvalidOptions(t *testing.T) {
	var attempts atomic.Int32
	var urls []StaticWorker
	for _, name := range []string{"w1", "w2"} {
		s := server.New(server.Config{WorkerName: name})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/map" {
				attempts.Add(1)
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		urls = append(urls, StaticWorker{Name: name, URL: ts.URL})
	}
	c, ts := newCoordinator(t, Config{Workers: urls})
	aag := rc16AAG(t)
	for _, q := range []string{"policy=zzz", "target=fpga", "netlist=edif", "rounds=17", "delay_factor=NaN", "limit=-1"} {
		attempts.Store(0)
		before := c.metrics.retries.Value()
		resp, data := postCircuit(t, ts.URL+"/v1/map?"+q, aag)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want the worker's 400 relayed (%s)", q, resp.StatusCode, data)
		}
		if n := attempts.Load(); n != 1 {
			t.Errorf("%s: %d worker attempts, want 1", q, n)
		}
		if got := c.metrics.retries.Value(); got != before {
			t.Errorf("%s: slap_fleet_retries_total moved from %v to %v", q, before, got)
		}
	}
}

// TestMultiRoundFleetAffinity pins the fleet contract for the multi-round
// engine: a 4-round+choices request routes by structural hash like any
// other, an equal-config resubmission is answered from the affine worker's
// result cache (cached:true, identical QoR, per-round stats intact), and a
// different round config on the same circuit is a distinct cache entry.
func TestMultiRoundFleetAffinity(t *testing.T) {
	_, w1 := newWorker(t, "w1")
	_, w2 := newWorker(t, "w2")
	_, ts := newCoordinator(t, Config{
		Workers: []StaticWorker{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}},
	})
	aag := rc16AAG(t)
	url := ts.URL + "/v1/map?policy=default&rounds=4&choices=true"

	var first server.MapResponse
	resp, data := postCircuit(t, url, aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first multi-round map: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first multi-round map reported cached:true on a cold fleet")
	}
	if first.RoundsRun != 4 || len(first.RoundStats) != 4 {
		t.Fatalf("multi-round response lacks per-round QoR: rounds_run=%d stats=%d",
			first.RoundsRun, len(first.RoundStats))
	}

	var second server.MapResponse
	resp, data = postCircuit(t, url, aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if second.Worker != first.Worker {
		t.Errorf("equal-config resubmission routed to %q, first to %q: affinity broken", second.Worker, first.Worker)
	}
	if !second.Cached {
		t.Error("equal round-config resubmission was not served from the result cache")
	}
	if second.Area != first.Area || second.Delay != first.Delay || len(second.RoundStats) != 4 {
		t.Errorf("cached multi-round mapping differs: area %v/%v delay %v/%v stats=%d",
			second.Area, first.Area, second.Delay, first.Delay, len(second.RoundStats))
	}

	// A single-round request for the same circuit must not hit the
	// 4-round entry.
	var single server.MapResponse
	resp, data = postCircuit(t, ts.URL+"/v1/map?policy=default", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-round map: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &single); err != nil {
		t.Fatal(err)
	}
	if single.Cached {
		t.Error("single-round request was served the multi-round cache entry")
	}
	if single.RoundsRun != 0 || len(single.RoundStats) != 0 {
		t.Errorf("single-round response carries round stats: rounds_run=%d stats=%d",
			single.RoundsRun, len(single.RoundStats))
	}
}

// stubWorker is a minimal fake worker: healthy /healthz, scripted /v1/map.
func stubWorker(t *testing.T, name string, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","worker":%q}`, name)
	})
	mux.HandleFunc("POST /v1/map", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestShedWhenSaturated pins the in-flight cap: with every live worker at
// its cap the fleet answers 503 instead of queueing, and the shed counter
// moves.
func TestShedWhenSaturated(t *testing.T) {
	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	stub := stubWorker(t, "stub", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-block
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"worker":"stub"}`)
	})
	defer close(block)
	c, ts := newCoordinator(t, Config{
		Workers:           []StaticWorker{{Name: "stub", URL: stub.URL}},
		InflightPerWorker: 1,
		MaxAttempts:       2,
		BackoffBase:       time.Millisecond,
		BackoffMax:        2 * time.Millisecond,
	})
	aag := rc16AAG(t)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postCircuit(t, ts.URL+"/v1/map", aag)
	}()
	<-entered // the only slot is now held

	resp, data := postCircuit(t, ts.URL+"/v1/map", aag)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated fleet answered %d (%s), want 503", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("saturated")) {
		t.Errorf("shed error %q does not mention saturation", data)
	}
	if shed := c.metrics.shed.Value(); shed < 1 {
		t.Errorf("slap_fleet_shed_total = %v, want >= 1", shed)
	}
	block <- struct{}{} // release the parked request
	<-done
}

// TestRegistrationLifecycle drives the control plane: a worker joins via
// POST /v1/workers/register, receives traffic, then leaves via DELETE.
func TestRegistrationLifecycle(t *testing.T) {
	var served atomic.Int64
	stub := stubWorker(t, "joiner", func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"worker":"joiner"}`)
	})
	_, ts := newCoordinator(t, Config{})
	aag := rc16AAG(t)

	// Empty fleet: degraded health, requests shed.
	resp, data := postCircuit(t, ts.URL+"/v1/map", aag)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet answered %d (%s), want 503", resp.StatusCode, data)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hdata, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !bytes.Contains(hdata, []byte(`"degraded"`)) || !bytes.Contains(hdata, []byte("no workers registered")) {
		t.Errorf("empty-fleet healthz = %s, want degraded with no-workers reason", hdata)
	}

	// Join.
	body, _ := json.Marshal(RegisterRequest{Name: "joiner", URL: stub.URL})
	resp, err = http.Post(ts.URL+"/v1/workers/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register answered %d", resp.StatusCode)
	}
	resp, data = postCircuit(t, ts.URL+"/v1/map", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-join map answered %d (%s)", resp.StatusCode, data)
	}
	if served.Load() == 0 {
		t.Error("registered worker never saw the proxied request")
	}

	// Re-registering the same name is a heartbeat, not a new member.
	resp, err = http.Post(ts.URL+"/v1/workers/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Joined  bool `json:"joined"`
		Workers int  `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reg.Joined || reg.Workers != 1 {
		t.Errorf("re-register: joined=%v workers=%d, want heartbeat (false, 1)", reg.Joined, reg.Workers)
	}

	// Leave.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/joiner", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister answered %d", resp.StatusCode)
	}
	resp, data = postCircuit(t, ts.URL+"/v1/map", aag)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-leave map answered %d (%s), want 503", resp.StatusCode, data)
	}
}

// TestProbeMarksDeadAndMetrics kills a worker and waits for the probe
// state machine to declare it dead, then checks /healthz and /metrics
// surface the transition.
func TestProbeMarksDeadAndMetrics(t *testing.T) {
	stub := stubWorker(t, "mortal", func(w http.ResponseWriter, r *http.Request) {})
	_, ts := newCoordinator(t, Config{
		Workers:       []StaticWorker{{Name: "mortal", URL: stub.URL}},
		ProbeInterval: 10 * time.Millisecond,
		DeadAfter:     2,
	})
	stub.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if bytes.Contains(data, []byte(`"state": "dead"`)) || bytes.Contains(data, []byte(`"state":"dead"`)) {
			if !bytes.Contains(data, []byte(`"degraded"`)) {
				t.Errorf("healthz with a dead worker = %s, want degraded status", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never declared dead; healthz = %s", data)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`slap_fleet_workers{state="dead"} 1`,
		`slap_fleet_workers{state="up"} 0`,
		"slap_fleet_retries_total",
		"slap_fleet_shed_total",
		"slap_fleet_worker_deaths_total 1",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
}

// TestHeartbeatRevivalClearsLastErr checks that a dead worker that
// re-registers reads up in /v1/workers with its strikes and last error
// cleared, as one revived by a probe or a proxied request does.
func TestHeartbeatRevivalClearsLastErr(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	c, ts := newCoordinator(t, Config{ProbeInterval: time.Hour, DeadAfter: 2})
	status := func() WorkerStatus {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Workers []WorkerStatus `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if len(body.Workers) != 1 {
			t.Fatalf("%d workers listed, want 1", len(body.Workers))
		}
		return body.Workers[0]
	}

	register(t, ts.URL, "phoenix", gone.URL)
	c.probeAll()
	c.probeAll()
	if s := status(); s.State != "dead" || s.LastErr == "" {
		t.Fatalf("after two failed probes: state %q, last_err %q; want dead with an error", s.State, s.LastErr)
	}
	register(t, ts.URL, "phoenix", gone.URL)
	if s := status(); s.State != "up" || s.ConsecFails != 0 || s.LastErr != "" {
		t.Fatalf("after the heartbeat: state %q, consec_fails %d, last_err %q; want up, 0 and none", s.State, s.ConsecFails, s.LastErr)
	}
}

// TestRouteKeyRejectsGarbage checks malformed circuits fail fast at the
// coordinator, before touching any worker.
func TestRouteKeyRejectsGarbage(t *testing.T) {
	stub := stubWorker(t, "never", func(w http.ResponseWriter, r *http.Request) {
		t.Error("malformed request reached a worker")
	})
	_, ts := newCoordinator(t, Config{Workers: []StaticWorker{{Name: "never", URL: stub.URL}}})
	resp, _ := postCircuit(t, ts.URL+"/v1/map", "this is not a circuit")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage circuit answered %d, want 400", resp.StatusCode)
	}
	resp, _ = postCircuit(t, ts.URL+"/v1/map", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body answered %d, want 400", resp.StatusCode)
	}
}
