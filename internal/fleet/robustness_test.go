package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/chaos"
	"slap/internal/dataset"
	"slap/internal/genjob"
	"slap/internal/library"
)

// affineOrder computes the ring preference order the coordinator will use
// for the rc16 design — tests script the affine worker's behavior.
func affineOrder(t *testing.T, c *Coordinator, aag string) []*worker {
	t.Helper()
	key, err := routeKey([]byte(aag), "text/plain", url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	order := c.lookup(key)
	if len(order) == 0 {
		t.Fatal("empty ring")
	}
	return order
}

// switchableWorker is a stub whose /v1/map can be flipped between healthy
// and 500ing at runtime; /healthz always succeeds, which is exactly the
// case the breaker exists for.
func switchableWorker(t *testing.T, name string) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	var failing atomic.Bool
	ts := stubWorker(t, name, func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "injected worker failure", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"worker":%q}`, name)
	})
	return ts, &failing
}

// TestBreakerOpensAndHedgedReadWins drives the breaker + hedge path: the
// affine worker serves /healthz but 500s every request, so its breaker
// trips open; the next read for that design is then hedged across the two
// surviving replicas, and either arm's (identical) answer wins.
func TestBreakerOpensAndHedgedReadWins(t *testing.T) {
	stubs := make(map[string]*httptest.Server, 3)
	fails := make(map[string]*atomic.Bool, 3)
	cfg := Config{
		MaxAttempts:      3,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute, // keep it open for the whole test
		ProbeInterval:    time.Hour,   // probes must not interfere
	}
	for _, name := range []string{"w1", "w2", "w3"} {
		ts, failing := switchableWorker(t, name)
		stubs[name], fails[name] = ts, failing
		cfg.Workers = append(cfg.Workers, StaticWorker{Name: name, URL: ts.URL})
	}
	c, ts := newCoordinator(t, cfg)
	aag := rc16AAG(t)
	affine := affineOrder(t, c, aag)[0].name
	fails[affine].Store(true)

	// First read: affine 500s (tripping its breaker at threshold 1), the
	// retry lands on the next replica.
	resp, data := postCircuit(t, ts.URL+"/v1/map", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first read answered %d: %s", resp.StatusCode, data)
	}
	var mr struct {
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Worker == affine {
		t.Fatalf("500ing affine worker %q served the request", affine)
	}
	if got := c.metrics.hedges.Value(); got != 0 {
		t.Fatalf("plain failover counted %v hedges, want 0", got)
	}

	// Second read: the open breaker displaces it from the affine worker
	// up front, which must hedge it across the two healthy replicas.
	resp, data = postCircuit(t, ts.URL+"/v1/map", aag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged read answered %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Worker == affine {
		t.Fatalf("breaker-open worker %q served the hedged read", affine)
	}
	if got := c.metrics.hedges.Value(); got != 1 {
		t.Fatalf("hedges = %v, want 1", got)
	}

	// Observability: breaker state, trip count and hedge wins all export.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("slap_fleet_breaker_state{worker=%q} 2", affine),
		"slap_fleet_breaker_opens_total 1",
		"slap_fleet_hedges_total 1",
		`slap_fleet_hedge_wins_total{arm=`,
	} {
		if !bytes.Contains(mdata, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, mdata)
		}
	}

	// In-flight slots all drained — both hedge arms settled. The loser may
	// still be unwinding, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for name := range stubs {
		for {
			if got := c.workerByName(t, name).inflight.Load(); got == 0 {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("worker %s inflight = %d after hedging, want 0", name, got)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// workerByName fetches a worker record (tests).
func (c *Coordinator) workerByName(t *testing.T, name string) *worker {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[name]
	if !ok {
		t.Fatalf("unknown worker %q", name)
	}
	return w
}

// errReader yields a few bytes then fails — a client whose upload dies
// midway.
type errReader struct {
	data []byte
	err  error
}

func (e *errReader) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

// TestBodyBufferedOnceAndReplayedWhole pins retry-safe proxying: a body
// that errors after N bytes never reaches any worker, and a retried
// request replays the complete buffered body, not a partial stream.
func TestBodyBufferedOnceAndReplayedWhole(t *testing.T) {
	var reached atomic.Int64
	bodies := make(chan []byte, 4)
	first := true
	stub := stubWorker(t, "solo", func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		b, _ := io.ReadAll(r.Body)
		bodies <- b
		if first {
			first = false
			http.Error(w, "flaky once", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"worker":"solo"}`)
	})
	c, _ := newCoordinator(t, Config{
		Workers:     []StaticWorker{{Name: "solo", URL: stub.URL}},
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	aag := rc16AAG(t)

	// A body that dies mid-upload is rejected at the coordinator, before
	// any worker sees a byte.
	r := httptest.NewRequest(http.MethodPost, "/v1/map", &errReader{data: []byte(aag[:64]), err: errors.New("upload died")})
	rec := httptest.NewRecorder()
	c.routeProxy(rec, r)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("erroring body answered %d, want 400", rec.Code)
	}
	if got := reached.Load(); got != 0 {
		t.Fatalf("erroring body reached a worker %d time(s)", got)
	}

	// A good body that needs a retry (worker 500s once) replays whole.
	r = httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(aag))
	rec = httptest.NewRecorder()
	c.routeProxy(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("retried request answered %d: %s", rec.Code, rec.Body)
	}
	if got := reached.Load(); got != 2 {
		t.Fatalf("worker saw %d attempts, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if b := <-bodies; string(b) != aag {
			t.Fatalf("attempt %d received %d bytes, want the full %d-byte body", i+1, len(b), len(aag))
		}
	}
}

// TestClientCancelPropagatesToWorker pins disconnect propagation: when
// the client gives up, the coordinator cancels the in-flight worker
// request — the worker observes context cancellation — without striking
// the worker's health or breaker.
func TestClientCancelPropagatesToWorker(t *testing.T) {
	entered := make(chan struct{}, 1)
	sawCancel := make(chan struct{})
	stub := stubWorker(t, "patient", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the net/http server only watches for a
		// dropped connection (and cancels r.Context()) once the handler
		// has consumed the request — same as the real worker does.
		io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		select {
		case <-r.Context().Done():
			close(sawCancel)
		case <-time.After(10 * time.Second):
		}
	})
	c, ts := newCoordinator(t, Config{
		Workers:       []StaticWorker{{Name: "patient", URL: stub.URL}},
		ProbeInterval: time.Hour,
	})
	aag := rc16AAG(t)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/map", strings.NewReader(aag))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("canceled request got a response")
		}
		errc <- err
	}()
	<-entered
	cancel()
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never observed the client's cancellation")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error = %v, want context.Canceled", err)
	}

	// No strike for a client-side cancel, and the slot drains.
	wk := c.workerByName(t, "patient")
	deadline := time.Now().Add(2 * time.Second)
	for wk.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d after cancel, want 0", wk.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.stateOf(wk); st != StateUp {
		t.Errorf("worker state after client cancel = %v, want up", st)
	}
	if st := wk.brk.State(); st != BreakerClosed {
		t.Errorf("breaker after client cancel = %v, want closed", st)
	}
}

// TestDeadlineBudget pins timeout propagation: a ?timeout_ms budget caps
// the whole replica walk — a hanging worker turns into a prompt 504, not
// MaxAttempts × hang.
func TestDeadlineBudget(t *testing.T) {
	stub := stubWorker(t, "tarpit", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // arm disconnect detection, as above
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	_, ts := newCoordinator(t, Config{
		Workers:       []StaticWorker{{Name: "tarpit", URL: stub.URL}},
		MaxAttempts:   5,
		ProbeInterval: time.Hour,
	})
	aag := rc16AAG(t)
	start := time.Now()
	resp, data := postCircuit(t, ts.URL+"/v1/map?timeout_ms=100", aag)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-capped request answered %d (%s), want 504", resp.StatusCode, data)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("100ms budget took %v — the replica walk ignored the deadline", elapsed)
	}
}

// TestFlappingWorkerNoLivelock oscillates a worker between connection
// kills and clean answers with a deterministic chaos schedule and checks
// routing neither livelocks nor leaks in-flight slots, while the health
// state machine keeps transitioning dead → up.
func TestFlappingWorkerNoLivelock(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"worker":"flap"}`)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	// Kill every other /v1/map connection: match 0, 2, 4, … die.
	sched := chaos.New(42, chaos.Rule{Kind: chaos.KindKill, Path: "/v1/map", Every: 2})
	mux.Handle("POST /v1/map", sched.Middleware(inner))
	flap := httptest.NewServer(mux)
	t.Cleanup(flap.Close)

	c, ts := newCoordinator(t, Config{
		Workers:       []StaticWorker{{Name: "flap", URL: flap.URL}},
		ProbeInterval: 10 * time.Millisecond,
		DeadAfter:     1,
		// One attempt per request: a retry could race the 10ms probe,
		// reach the revived worker and shift the chaos schedule's parity.
		MaxAttempts:      1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 100, // isolate the health state machine
	})
	aag := rc16AAG(t)
	wk := c.workerByName(t, "flap")

	waitUp := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.stateOf(wk) != StateUp {
			if time.Now().After(deadline) {
				t.Fatal("probe never revived the flapping worker")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	transitions := 0
	for i := 0; i < 6; i++ {
		waitUp()
		resp, data := postCircuit(t, ts.URL+"/v1/map", aag)
		if i%2 == 0 {
			// Killed connection: strike → dead (DeadAfter 1), no second
			// candidate → 502, then the probe revives it. The death is
			// recorded before the 502 is written, but the 10ms probe may
			// revive the worker before we could look at its state — so
			// assert on the monotonic death counter, not the live state.
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("request %d answered %d (%s), want 502", i, resp.StatusCode, data)
			}
			transitions++
			if got := c.metrics.deaths.Value(); got != float64(transitions) {
				t.Fatalf("request %d: deaths = %v, want %d", i, got, transitions)
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d answered %d (%s), want 200", i, resp.StatusCode, data)
		}
		if got := wk.inflight.Load(); got != 0 {
			t.Fatalf("request %d leaked in-flight slots: %d", i, got)
		}
	}
	if transitions < 3 {
		t.Fatalf("observed %d dead transitions, want 3", transitions)
	}

	// The injected schedule is introspectable: exactly the kills we saw.
	if got := len(sched.Injections()); got != 3 {
		t.Errorf("chaos injected %d faults, want 3", got)
	}

	// Metrics: deaths counted, inflight gauge back to 0.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"slap_fleet_worker_deaths_total 3",
		`slap_fleet_worker_inflight{worker="flap"} 0`,
	} {
		if !bytes.Contains(mdata, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, mdata)
		}
	}
}

// TestCoordinatorCrashResumeByteIdentical is the tentpole acceptance
// test: a coordinator journaling to disk is killed mid-sweep (Close with
// shards still pending — exactly what SIGKILL leaves behind: a journal
// whose last word on the job is its submission), restarted on the same
// journal, and must re-adopt its self-registered worker, resume the job
// under the same id, reuse the shards that finished before the crash,
// and merge a dataset byte-identical to a single-process run.
func TestCoordinatorCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet sweep")
	}
	_, w1 := newWorker(t, "w1")
	_, w2 := newWorker(t, "w2")
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "coordinator.journal")
	jobsDir := filepath.Join(dir, "jobs")

	// Chaos on the coordinator's outbound client: every shard execution
	// pays 150ms, guaranteeing the sweep is still mid-flight at the kill.
	slowClient := &http.Client{Transport: chaos.New(7, chaos.Rule{
		Kind: chaos.KindLatency, Path: "/v1/shards/execute", Delay: 150 * time.Millisecond,
	}).Transport(nil)}

	cfg1 := Config{
		Workers:          []StaticWorker{{Name: "w1", URL: w1.URL}},
		JournalPath:      journalPath,
		JobsDir:          jobsDir,
		ShardConcurrency: 1,
		ProbeInterval:    25 * time.Millisecond,
		Client:           slowClient,
	}
	c1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())

	// w2 joins dynamically — its membership must survive the crash via
	// the journal, not the static flags.
	regBody, _ := json.Marshal(RegisterRequest{Name: "w2", URL: w2.URL})
	resp, err := http.Post(ts1.URL+"/v1/workers/register", "application/json", bytes.NewReader(regBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req := DatasetJobRequest{Sweep: genjob.Sweep{
		Circuits:       []string{"rc16", "cla16"},
		MapsPerCircuit: 3,
		Shards:         6,
		Seed:           11,
	}}
	body, _ := json.Marshal(req)
	resp, err = http.Post(ts1.URL+"/v1/jobs/dataset", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if submitted.ID == "" {
		t.Fatal("no job id")
	}

	// Wait for partial progress, then "crash": Close cancels the job
	// mid-flight and leaves the journal's last word as the submission.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, ts1.URL, submitted.ID)
		if st.ShardsDone >= 1 && st.State == "running" {
			break
		}
		if st.State == "done" || st.State == "failed" {
			t.Fatalf("job finished (%s) before the crash window", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard progress before deadline: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts1.Close()
	c1.Close()

	// Restart on the same journal — no static w2, no chaos.
	cfg2 := Config{
		Workers:       []StaticWorker{{Name: "w1", URL: w1.URL}},
		JournalPath:   journalPath,
		JobsDir:       jobsDir,
		ProbeInterval: 25 * time.Millisecond,
	}
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		c2.Close()
	})
	if got := c2.metrics.journalReplays.Value(); got < 2 {
		t.Fatalf("journal replays = %v, want >= 2 (membership + job)", got)
	}
	if c2.workerByName(t, "w2").url != strings.TrimRight(w2.URL, "/") {
		t.Fatal("self-registered worker w2 not re-adopted from the journal")
	}

	var final genjob.Status
	deadline = time.Now().Add(120 * time.Second)
	for {
		final = jobStatus(t, ts2.URL, submitted.ID)
		if final.State == "done" || final.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished: %+v", final)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if final.State != "done" {
		t.Fatalf("resumed job failed: %+v", final)
	}
	if final.ShardsReused < 1 {
		t.Fatalf("resumed job reused %d shards, want >= 1 (pre-crash work thrown away)", final.ShardsReused)
	}

	// Byte-identity against the single-process reference.
	dcfg, err := req.Resolve(library.ASAP7ish())
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	refFile := filepath.Join(dir, "reference.gob")
	if err := want.SaveFile(refFile); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(final.DatasetFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("resumed fleet dataset differs from single-process reference (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}

	// A second restart replays the terminal record: the job reports done
	// without re-running anything.
	c3, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(c3.Handler())
	t.Cleanup(func() {
		ts3.Close()
		c3.Close()
	})
	if st := jobStatus(t, ts3.URL, submitted.ID); st.State != "done" || st.DatasetFile != final.DatasetFile {
		t.Fatalf("job after second restart = %+v, want done with the same dataset", st)
	}
}

// jobStatus fetches one fleet job's status.
func jobStatus(t *testing.T, base, id string) genjob.Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("job status answered %d: %s", resp.StatusCode, b)
	}
	var st genjob.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHedgeDeadlineStrikesNothing: a hedged read that runs out of its
// client's time budget ends on the caller's deadline, not on a worker
// fault. The affine worker's breaker is open, so the read is hedged
// across the other two replicas, and both hang past ?timeout_ms: the
// answer is 504, and neither hedge worker takes a health or breaker
// strike.
func TestHedgeDeadlineStrikesNothing(t *testing.T) {
	hang := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // arm disconnect detection
		<-r.Context().Done()
	}
	var workers []StaticWorker
	for _, name := range []string{"w1", "w2", "w3"} {
		workers = append(workers, StaticWorker{Name: name, URL: stubWorker(t, name, hang).URL})
	}
	c, ts := newCoordinator(t, Config{
		Workers:          workers,
		ProbeInterval:    time.Hour,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	aag := rc16AAG(t)
	order := affineOrder(t, c, aag)
	order[0].brk.Failure() // open the affine worker's breaker: the read hedges

	resp, data := postCircuit(t, ts.URL+"/v1/map?timeout_ms=200", aag)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hedged read past its deadline answered %d (%s), want 504", resp.StatusCode, data)
	}
	if got := c.metrics.hedges.Value(); got != 1 {
		t.Fatalf("hedges = %v, want 1", got)
	}
	for _, wk := range order[1:] {
		c.mu.Lock()
		fails, lastErr := wk.consecFails, wk.lastErr
		c.mu.Unlock()
		if fails != 0 || lastErr != "" {
			t.Errorf("hedge worker %s after the caller's deadline: consec_fails %d, last_err %q; want no strike", wk.name, fails, lastErr)
		}
		if st := wk.brk.State(); st != BreakerClosed {
			t.Errorf("hedge worker %s breaker = %v after the caller's deadline, want closed", wk.name, st)
		}
		if n := wk.inflight.Load(); n != 0 {
			t.Errorf("hedge worker %s holds %d in-flight slots", wk.name, n)
		}
	}
}
