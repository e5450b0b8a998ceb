package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"slap/internal/genjob"
	"slap/internal/library"
)

// TestShardExecuteRoundTrip checks the worker half of remote dataset
// fan-out: POST /v1/shards/execute answers with a framed shard whose
// bytes pass the coordinator's full verification and whose SHA header
// matches the frame content.
func TestShardExecuteRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Config{WorkerName: "w-test"})
	_ = srv

	req := genjob.ShardRequest{
		Sweep: genjob.Sweep{Circuits: []string{"rc16"}, MapsPerCircuit: 2, Seed: 7},
		Spec:  genjob.Spec{Shard: 0, Circuit: 0, Start: 0, End: 2},
	}
	resp, data := postJSON(t, ts.URL+"/v1/shards/execute", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("Content-Type = %q, want application/octet-stream", got)
	}
	if got := resp.Header.Get("X-Slap-Worker"); got != "w-test" {
		t.Errorf("X-Slap-Worker = %q, want w-test", got)
	}
	sha := resp.Header.Get(shardSHAHeader)
	if sha == "" {
		t.Fatalf("missing %s header", shardSHAHeader)
	}

	// The frame must be exactly what a local attempt at the same shard
	// produces, and the SHA header its payload's.
	dcfg, err := req.Resolve(library.ASAP7ish())
	if err != nil {
		t.Fatal(err)
	}
	want, wantSHA, err := genjob.ExecuteShardBytes(context.Background(), dcfg, req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("worker frame (%d bytes) differs from the local frame (%d bytes)", len(data), len(want))
	}
	if sha != wantSHA {
		t.Errorf("%s header %s, want the payload SHA %s", shardSHAHeader, sha, wantSHA)
	}

	// Determinism: re-executing the same shard yields the identical frame.
	resp2, data2 := postJSON(t, ts.URL+"/v1/shards/execute", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-execution status %d", resp2.StatusCode)
	}
	if string(data) != string(data2) {
		t.Error("re-executing the same shard produced different frame bytes")
	}
}

// TestShardExecuteRejects pins the endpoint's validation: fingerprint skew
// answers 409, malformed specs and sweeps answer 400, and so do sweeps
// past genjob's bounds, before anything is allocated by their counts.
func TestShardExecuteRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := genjob.ShardRequest{
		Sweep: genjob.Sweep{MapsPerCircuit: 2},
		Spec:  genjob.Spec{Shard: 0, Circuit: 0, Start: 0, End: 2},
	}
	for _, tc := range hostileSweeps {
		t.Run(tc.name, func(t *testing.T) {
			code, alloc := postAllocs(t, ts.URL+"/v1/shards/execute", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
			if alloc > 1<<20 {
				t.Errorf("refusal allocated %d bytes, want at most 1 MiB", alloc)
			}
		})
	}

	t.Run("fingerprint skew", func(t *testing.T) {
		req := base
		req.Fingerprint = "deadbeefdeadbeef"
		resp, data := postJSON(t, ts.URL+"/v1/shards/execute", req)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status %d (%s), want 409", resp.StatusCode, data)
		}
	})
	t.Run("no maps", func(t *testing.T) {
		req := base
		req.MapsPerCircuit = 0
		resp, _ := postJSON(t, ts.URL+"/v1/shards/execute", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("spec out of range", func(t *testing.T) {
		req := base
		req.Circuit = 99
		resp, _ := postJSON(t, ts.URL+"/v1/shards/execute", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown circuit", func(t *testing.T) {
		req := base
		req.Circuits = []string{"mystery"}
		resp, _ := postJSON(t, ts.URL+"/v1/shards/execute", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestWorkerNameStamping checks the fleet identity rides every data-path
// answer: /v1/map and /v1/classify responses carry the worker field (and
// header), /healthz reports the name, and an unnamed server omits them.
func TestWorkerNameStamping(t *testing.T) {
	_, named := newTestServer(t, Config{WorkerName: "w7"})
	resp, data := postRaw(t, named.URL+"/v1/map", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d: %s", resp.StatusCode, data)
	}
	var mr MapResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Worker != "w7" {
		t.Errorf("map response worker = %q, want w7", mr.Worker)
	}
	if got := resp.Header.Get("X-Slap-Worker"); got != "w7" {
		t.Errorf("X-Slap-Worker = %q, want w7", got)
	}

	var hz struct {
		Worker string `json:"worker"`
	}
	if status := getJSON(t, named.URL+"/healthz", &hz); status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	if hz.Worker != "w7" {
		t.Errorf("healthz worker = %q, want w7", hz.Worker)
	}

	_, anon := newTestServer(t, Config{})
	resp, data = postRaw(t, anon.URL+"/v1/map", rc16Text(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous map status %d", resp.StatusCode)
	}
	var anonMR MapResponse
	if err := json.Unmarshal(data, &anonMR); err != nil {
		t.Fatal(err)
	}
	if anonMR.Worker != "" {
		t.Errorf("unnamed server stamped worker %q, want empty", anonMR.Worker)
	}
	if got := resp.Header.Get("X-Slap-Worker"); got != "" {
		t.Errorf("unnamed server set X-Slap-Worker %q, want unset", got)
	}
}
