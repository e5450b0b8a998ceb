package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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
