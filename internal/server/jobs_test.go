package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/dataset"
	"slap/internal/genjob"
	"slap/internal/library"
)

// TestPanicRecoveryMiddleware is the bulkhead regression test: a handler
// that panics mid-mapping must answer 500, count into panics_total, and —
// critically — release its scheduler tokens so the inflight budget stays
// honest for subsequent requests.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, ts := newTestServer(t, Config{WorkerBudget: 2})
	srv.faultHook = func(endpoint string) {
		panic("injected fault in " + endpoint)
	}

	for _, ep := range []string{"/v1/map?policy=default", "/v1/classify?model=toy"} {
		resp, data := postRaw(t, ts.URL+ep, rc16Text(t))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s with panicking worker: status %d, want 500 (%s)", ep, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), "panic") {
			t.Errorf("%s error body does not mention the panic: %s", ep, data)
		}
	}
	if got := srv.metrics.panics.Value(); got < 2 {
		t.Errorf("panics_total = %v, want >= 2", got)
	}
	if got := srv.Scheduler().InFlight(); got != 0 {
		t.Fatalf("inflight workers = %d after panics, want 0 (token leak)", got)
	}

	// The budget really is intact: with the fault cleared, a full-width
	// mapping still gets tokens and succeeds.
	srv.faultHook = nil
	resp, data := postRaw(t, ts.URL+"/v1/map?policy=default&workers=2", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mapping after recovered panics: status %d (%s)", resp.StatusCode, data)
	}
}

// getJSON fetches url and decodes the JSON body into out (nil skips
// decoding); it returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

// TestDatasetJobOverHTTP submits a sharded sweep, polls its status from
// several goroutines while the shard workers run (the -race coverage the
// job API promises), and checks the merged dataset is byte-identical to a
// single-process dataset.Generate with the same seed.
func TestDatasetJobOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerBudget: 4, JobsDir: t.TempDir()})

	resp, data := postJSON(t, ts.URL+"/v1/jobs/dataset", map[string]any{
		"circuits":         []string{"rc16", "cla16"},
		"maps_per_circuit": 6,
		"shards":           4,
		"seed":             7,
		"workers":          2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202 (%s)", resp.StatusCode, data)
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit answer: %s", data)
	}

	// Concurrent pollers race the shard workers on the job's state.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var st genjob.Status
				if code := getJSON(t, ts.URL+sub.StatusURL, &st); code != http.StatusOK {
					t.Errorf("poll: status %d", code)
					return
				}
				var list struct {
					Jobs []genjob.Status `json:"jobs"`
				}
				getJSON(t, ts.URL+"/v1/jobs", &list)
				time.Sleep(time.Millisecond)
			}
		}()
	}

	var final genjob.Status
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, ts.URL+sub.StatusURL, &final)
		if final.State == "done" || final.State == "failed" || final.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if final.State != "done" {
		t.Fatalf("job state %q, error %q", final.State, final.Error)
	}
	if final.ShardsDone != final.ShardsTotal || final.ShardsTotal != 4 {
		t.Errorf("shards done %d / total %d, want 4/4", final.ShardsDone, final.ShardsTotal)
	}

	got, err := dataset.LoadFile(final.DatasetFile)
	if err != nil {
		t.Fatalf("loading job dataset: %v", err)
	}
	want, err := dataset.Generate(dataset.Config{
		Circuits:       []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()},
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 6,
		Seed:           7,
		Workers:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("job dataset differs from single-process Generate with the same seed")
	}

	// Unknown job id answers 404.
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestHealthzDegraded injects a registry hot-load failure and checks that
// /healthz keeps answering 200 but flags the condition, and that the
// slap_degraded gauge goes nonzero.
func TestHealthzDegraded(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var healthy struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &healthy); code != http.StatusOK || healthy.Status != "ok" {
		t.Fatalf("pre-fault healthz: code %d status %q", code, healthy.Status)
	}

	// A bad artifact path fails the hot-load; the registry keeps serving
	// its existing entries but the operator should see the failure.
	resp, _ := postJSON(t, ts.URL+"/v1/registry/models", map[string]any{"path": "/nonexistent/broken.gob"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad hot-add: status %d, want 400", resp.StatusCode)
	}

	var h struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("degraded healthz must still answer 200, got %d", code)
	}
	if h.Status != "degraded" || len(h.Degraded) == 0 {
		t.Errorf("healthz after load failure: status %q degraded %v", h.Status, h.Degraded)
	}
	if !strings.Contains(strings.Join(h.Degraded, " "), "broken.gob") {
		t.Errorf("degraded reason does not name the artifact: %v", h.Degraded)
	}

	respM, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(respM.Body)
	respM.Body.Close()
	if v := metricsGauge(t, string(data), "slap_degraded"); v < 1 {
		t.Errorf("slap_degraded = %v, want >= 1", v)
	}

	// Mapping still works while degraded.
	respOK, body := postRaw(t, ts.URL+"/v1/map?policy=default", rc16Text(t))
	if respOK.StatusCode != http.StatusOK {
		t.Errorf("map while degraded: status %d (%s)", respOK.StatusCode, body)
	}
}

// TestJobSubmitValidation covers the request-validation edges of the job
// endpoint, and the sweep bounds: a body whose counts exceed them is
// refused before anything is allocated by them or a job directory is made.
func TestJobSubmitValidation(t *testing.T) {
	jobsDir := t.TempDir()
	_, ts := newTestServer(t, Config{JobsDir: jobsDir})
	cases := []struct{ name, body string }{
		{"missing maps", `{"circuits":["rc16"]}`},
		{"unknown circuit", `{"maps_per_circuit":2,"circuits":["zzz"]}`},
		{"unknown metric", `{"maps_per_circuit":2,"metric":"zzz"}`},
	}
	for _, tc := range append(cases, hostileSweeps...) {
		t.Run(tc.name, func(t *testing.T) {
			code, alloc := postAllocs(t, ts.URL+"/v1/jobs/dataset", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
			if alloc > 1<<20 {
				t.Errorf("refusal allocated %d bytes, want at most 1 MiB", alloc)
			}
		})
	}
	if entries, err := os.ReadDir(jobsDir); err != nil || len(entries) != 0 {
		t.Errorf("refused jobs left %d entries in the jobs directory (%v)", len(entries), err)
	}
}

// hostileSweeps are sweep bodies whose counts exceed genjob's bounds. At
// most a few hundred bytes each, they would otherwise have the process
// allocate by the counts they name (the plan, a shard's outcome slab).
var hostileSweeps = []struct{ name, body string }{
	{"maps over the bound", `{"maps_per_circuit":2000000,"end":2000000}`},
	{"a billion maps and shards", `{"maps_per_circuit":1000000000,"shards":1000000000}`},
	{"too many circuits", `{"maps_per_circuit":2,"end":2,"circuits":[` + strings.Repeat(`"rc16",`, genjob.MaxCircuits) + `"rc16"]}`},
	{"shards over the bound", `{"maps_per_circuit":2,"end":2,"shards":4097}`},
}

// postAllocs posts body to url and returns the answer's status code and
// the bytes the process allocated meanwhile.
func postAllocs(t *testing.T, url, body string) (int, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, _ := postRaw(t, url, body)
	runtime.ReadMemStats(&after)
	return resp.StatusCode, after.TotalAlloc - before.TotalAlloc
}

// submitTinyJob submits a minimal dataset job and waits for it to finish.
func submitTinyJob(t *testing.T, ts *httptest.Server) genjob.Status {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/jobs/dataset", map[string]any{
		"circuits":         []string{"rc16"},
		"maps_per_circuit": 2,
		"shards":           2,
		"seed":             3,
		"workers":          1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, data)
	}
	var sub struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	var st genjob.Status
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, ts.URL+sub.StatusURL, &st)
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job state %q, error %q", st.State, st.Error)
	}
	return st
}

// TestJobDeleteRemovesDirectory checks DELETE on a finished job removes both
// the registry entry and the on-disk shard directory immediately.
func TestJobDeleteRemovesDirectory(t *testing.T) {
	// Negative retention: only the explicit DELETE may remove anything.
	_, ts := newTestServer(t, Config{WorkerBudget: 2, JobsDir: t.TempDir(), JobRetention: -1})
	st := submitTinyJob(t, ts)
	if _, err := os.Stat(st.OutDir); err != nil {
		t.Fatalf("job directory missing before delete: %v", err)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var del struct {
		Deleted bool `json:"deleted"`
	}
	if err := json.Unmarshal(data, &del); err != nil || resp.StatusCode != http.StatusOK || !del.Deleted {
		t.Fatalf("delete answered %d %s, want 200 with deleted:true", resp.StatusCode, data)
	}
	if _, err := os.Stat(st.OutDir); !os.IsNotExist(err) {
		t.Errorf("job directory still present after delete: %v", err)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, nil); code != http.StatusNotFound {
		t.Errorf("deleted job still resolves: status %d, want 404", code)
	}
}

// TestJobRetentionGC checks a finished job is garbage-collected — registry
// entry and shard directory — once the configured retention expires, with no
// client involvement.
func TestJobRetentionGC(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerBudget: 2, JobsDir: t.TempDir(), JobRetention: 50 * time.Millisecond})
	st := submitTinyJob(t, ts)

	deadline := time.Now().Add(10 * time.Second)
	for {
		code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, nil)
		_, statErr := os.Stat(st.OutDir)
		if code == http.StatusNotFound && os.IsNotExist(statErr) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not collected after retention: status %d, dir err %v", code, statErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobIDsSurviveRestart: a second server on the same jobs directory
// numbers its jobs past the directories the first one left, so its first
// job runs in a fresh directory instead of failing on the old run.
func TestJobIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{WorkerBudget: 2, JobsDir: dir, JobRetention: -1})
	if st := submitTinyJob(t, ts1); st.ID != "job-0001" {
		t.Fatalf("first job id %q, want job-0001", st.ID)
	}
	_, ts2 := newTestServer(t, Config{WorkerBudget: 2, JobsDir: dir, JobRetention: -1})
	if st := submitTinyJob(t, ts2); st.ID != "job-0002" {
		t.Fatalf("first job after a restart has id %q, want job-0002", st.ID)
	}
}
