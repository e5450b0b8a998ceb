package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slap/internal/dataset"
	"slap/internal/genjob"
	"slap/internal/library"
	"slap/internal/server"
)

// pickFanoutPlan finds a shard count where both fleet workers own at
// least two shards of the sweep, so killing either mid-sweep is
// guaranteed to strand work that must fail over. The ring is
// deterministic, so this search is too.
func pickFanoutPlan(t *testing.T, circuits, maps int) (shards int, owned map[string]int) {
	t.Helper()
	ring := NewRing([]string{"w1", "w2"}, 0)
	for _, shards := range []int{8, 10, 12, 6, 14, 16} {
		specs := genjob.Plan(circuits, maps, shards)
		owned := map[string]int{}
		for _, sp := range specs {
			owned[ring.Owner(ShardKey(sp.Shard))]++
		}
		if owned["w1"] >= 2 && owned["w2"] >= 2 {
			return shards, owned
		}
	}
	t.Fatal("no shard count split work across both workers (ring constants changed?)")
	return 0, nil
}

// TestFanoutByteIdenticalWithWorkerDeath is the distributed-sweep
// acceptance test: two workers run a sharded dataset sweep, one is killed
// after serving its first shard, and the merged dataset must still be
// byte-identical to a single-process dataset.Generate with the same seed.
func TestFanoutByteIdenticalWithWorkerDeath(t *testing.T) {
	req := DatasetJobRequest{
		Sweep:       genjob.Sweep{MapsPerCircuit: 3, Seed: 42},
		MaxAttempts: 4,
	}
	dcfg, err := req.Resolve(library.ASAP7ish())
	if err != nil {
		t.Fatal(err)
	}
	if len(dcfg.Circuits) != 2 {
		t.Fatalf("default sweep resolves %d circuits, want rc16+cla16", len(dcfg.Circuits))
	}
	req.Shards, _ = pickFanoutPlan(t, len(dcfg.Circuits), req.MapsPerCircuit)

	// Reference: the single-process sweep every distributed run must match.
	want, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatal(err)
	}

	s1 := server.New(server.Config{WorkerName: "w1"})
	w1 := httptest.NewServer(s1.Handler())
	defer w1.Close()
	defer s1.Close()

	// w2 dies mid-sweep: it serves exactly one shard execution, then every
	// connection (probes included) is dropped at the TCP level — the
	// behaviour of a SIGKILLed process.
	s2 := server.New(server.Config{WorkerName: "w2"})
	defer s2.Close()
	var shardCalls atomic.Int64
	var dead atomic.Bool
	drop := func(w http.ResponseWriter) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}
	w2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			drop(w)
			return
		}
		if r.URL.Path == "/v1/shards/execute" {
			if shardCalls.Add(1) > 1 {
				dead.Store(true)
				drop(w)
				return
			}
			s2.Handler().ServeHTTP(w, r)
			dead.Store(true)
			return
		}
		s2.Handler().ServeHTTP(w, r)
	}))
	defer w2.Close()

	c, ts := newCoordinator(t, Config{
		Workers:          []StaticWorker{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}},
		ProbeInterval:    250 * time.Millisecond,
		DeadAfter:        1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		ShardConcurrency: 2,
		JobsDir:          t.TempDir(),
	})

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs/dataset", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("job submit answered %d (%+v), want 202 with id", resp.StatusCode, submitted)
	}

	var st genjob.Status
	deadline := time.Now().Add(3 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + submitted.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding job status %s: %v", data, err)
		}
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q: %s", st.State, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job finished %q (error %q), want done", st.State, st.Error)
	}
	if st.ShardsDone != st.ShardsTotal {
		t.Errorf("shards done %d/%d", st.ShardsDone, st.ShardsTotal)
	}
	if st.Retries < 1 {
		t.Errorf("job retries = %d after a worker death, want >= 1", st.Retries)
	}
	if got := c.metrics.retries.Value(); got < 1 {
		t.Errorf("slap_fleet_retries_total = %v, want >= 1", got)
	}
	if st.ShardWorkers["w1"] == 0 {
		t.Errorf("surviving worker executed no shards: %v", st.ShardWorkers)
	}
	if st.ShardWorkers["w2"] > 1 {
		t.Errorf("dead worker credited with %d shards, served only 1", st.ShardWorkers["w2"])
	}

	got, err := dataset.LoadFile(st.DatasetFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.X, want.X) || !reflect.DeepEqual(got.Y, want.Y) {
		t.Fatalf("distributed sweep dataset differs from single-process dataset.Generate (len %d vs %d)", got.Len(), want.Len())
	}

	// Byte identity, not just value identity: the merged file must equal
	// what a local save of the reference produces.
	gotBytes, err := os.ReadFile(st.DatasetFile)
	if err != nil {
		t.Fatal(err)
	}
	refFile := t.TempDir() + "/ref.gob"
	if err := want.SaveFile(refFile); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("merged dataset file is not byte-identical to the single-process reference (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}
}

// TestFanoutRejectsBadRequests checks job validation fails fast: a bad
// request, or one past the sweep bounds, is refused before anything is
// allocated by its counts or a journal record is appended.
func TestFanoutRejectsBadRequests(t *testing.T) {
	stub := stubWorker(t, "w", func(w http.ResponseWriter, r *http.Request) {})
	journal := filepath.Join(t.TempDir(), "coordinator.journal")
	_, ts := newCoordinator(t, Config{
		Workers:     []StaticWorker{{Name: "w", URL: stub.URL}},
		JournalPath: journal,
		JobsDir:     t.TempDir(),
	})
	journaled, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body string
	}{
		{"no maps", `{}`},
		{"bad circuit", `{"maps_per_circuit":2,"circuits":["nope"]}`},
		{"bad metric", `{"maps_per_circuit":2,"metric":"speed"}`},
		{"bad json", `{`},
		{"maps over the bound", `{"maps_per_circuit":2000000}`},
		{"a billion maps and shards", `{"maps_per_circuit":1000000000,"shards":1000000000}`},
		{"too many circuits", `{"maps_per_circuit":2,"circuits":[` + strings.Repeat(`"rc16",`, genjob.MaxCircuits) + `"rc16"]}`},
		{"shards over the bound", `{"maps_per_circuit":2,"shards":4097}`},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/v1/jobs/dataset", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400", tc.name, resp.StatusCode)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: refusal allocated %d bytes, want at most 1 MiB", tc.name, alloc)
		}
	}
	if now, err := os.ReadFile(journal); err != nil || !bytes.Equal(now, journaled) {
		t.Errorf("refused jobs appended to the journal (%d bytes, was %d; %v)", len(now), len(journaled), err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/fleet-9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job answered %d, want 404", resp.StatusCode)
	}
}

// TestShardCancelStrikesNothing: a job that cancels its own pending shards
// gives up on them; the worker running one has not failed. Shard 0
// answers 500, which with one attempt and no failure budget fails the job
// and cancels shard 1, still running on the same worker: that worker must
// end with no health strike and a closed breaker.
func TestShardCancelStrikesNothing(t *testing.T) {
	arrived := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/shards/execute", func(w http.ResponseWriter, r *http.Request) {
		var req genjob.ShardRequest
		err := json.NewDecoder(r.Body).Decode(&req)
		io.Copy(io.Discard, r.Body) // arm disconnect detection
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Shard == 1 {
			once.Do(func() { close(arrived) })
			<-r.Context().Done()
			return
		}
		select { // fail shard 0 only once shard 1 is running
		case <-arrived:
		case <-time.After(10 * time.Second):
		}
		http.Error(w, "injected shard failure", http.StatusInternalServerError)
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(stub.Close)

	c, ts := newCoordinator(t, Config{
		Workers:          []StaticWorker{{Name: "w", URL: stub.URL}},
		ProbeInterval:    time.Hour,
		ShardConcurrency: 2,
		JobsDir:          t.TempDir(),
	})
	resp, err := http.Post(ts.URL+"/v1/jobs/dataset", "application/json",
		strings.NewReader(`{"maps_per_circuit":2,"shards":2,"seed":1,"max_attempts":1,"failure_budget":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct{ ID string }
	json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit answered %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	st := jobStatus(t, ts.URL, submitted.ID)
	for !st.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
		st = jobStatus(t, ts.URL, submitted.ID)
	}
	if st.State != "failed" {
		t.Fatalf("job = %+v, want failed", st)
	}

	wk := c.workerByName(t, "w")
	c.mu.Lock()
	fails, lastErr := wk.consecFails, wk.lastErr
	c.mu.Unlock()
	if fails != 0 || lastErr != "" {
		t.Errorf("worker after the job canceled its shard: consec_fails %d, last_err %q; want no strike", fails, lastErr)
	}
	if st := wk.brk.State(); st != BreakerClosed {
		t.Errorf("breaker = %v after the job canceled its shard, want closed", st)
	}
}

// TestFleetJobIDsSurviveRestart: without a journal, a restarted
// coordinator numbers its jobs past the directories already in its jobs
// directory, so a new sweep never resumes into an old one's files.
func TestFleetJobIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, w := newWorker(t, "w1")
	cfg := Config{Workers: []StaticWorker{{Name: "w1", URL: w.URL}}, JobsDir: dir}
	runJob := func(base string) genjob.Status {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs/dataset", "application/json",
			strings.NewReader(`{"circuits":["rc16"],"maps_per_circuit":2,"shards":2,"seed":3}`))
		if err != nil {
			t.Fatal(err)
		}
		var submitted struct{ ID string }
		json.NewDecoder(resp.Body).Decode(&submitted)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit answered %d, want 202", resp.StatusCode)
		}
		deadline := time.Now().Add(60 * time.Second)
		st := jobStatus(t, base, submitted.ID)
		for !st.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job never finished: %+v", st)
			}
			time.Sleep(10 * time.Millisecond)
			st = jobStatus(t, base, submitted.ID)
		}
		if st.State != "done" {
			t.Fatalf("job = %+v, want done", st)
		}
		return st
	}
	// snapshot maps every file under root to its contents.
	snapshot := func(root string) map[string]string {
		t.Helper()
		files := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	_, ts1 := newCoordinator(t, cfg)
	if st := runJob(ts1.URL); st.ID != "fleet-0001" {
		t.Fatalf("first job id %q, want fleet-0001", st.ID)
	}
	first := filepath.Join(dir, "fleet-0001")
	before := snapshot(first)

	_, ts2 := newCoordinator(t, cfg)
	if st := runJob(ts2.URL); st.ID != "fleet-0002" {
		t.Fatalf("first job after a restart has id %q, want fleet-0002", st.ID)
	}
	if after := snapshot(first); !reflect.DeepEqual(after, before) {
		t.Fatalf("the restarted coordinator's job changed %s", first)
	}
}
