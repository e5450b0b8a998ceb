package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestJournalRoundTrip appends a membership and job history, reopens the
// file, and checks the replay reconstructs the surviving state.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	j, st, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.applied != 0 || len(st.workers) != 0 {
		t.Fatalf("fresh journal replayed state: %+v", st)
	}
	req := json.RawMessage(`{"circuits":["rc16"],"maps_per_circuit":4,"shards":2,"seed":9}`)
	records := []journalRecord{
		{Op: opWorkerAdd, Name: "w1", URL: "http://h1:1"},
		{Op: opWorkerAdd, Name: "w2", URL: "http://h2:1"},
		{Op: opWorkerRemove, Name: "w1"},
		{Op: opWorkerAdd, Name: "w1", URL: "http://h1:9"}, // re-registered on a new port
		{Op: opJobSubmit, Job: "fleet-0001", OutDir: "/jobs/fleet-0001", Req: req},
		{Op: opJobSubmit, Job: "fleet-0002", OutDir: "/jobs/fleet-0002", Req: req},
		{Op: opJobDone, Job: "fleet-0001", File: "/jobs/fleet-0001/dataset.gob"},
	}
	for _, r := range records {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j2, st2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if st2.applied != len(records) || st2.dropped != 0 {
		t.Fatalf("replay applied %d dropped %d, want %d/0", st2.applied, st2.dropped, len(records))
	}
	if len(st2.workers) != 2 {
		t.Fatalf("membership = %d workers, want 2", len(st2.workers))
	}
	if got := st2.workers["w1"].URL; got != "http://h1:9" {
		t.Fatalf("w1 URL = %q, want last-record-wins http://h1:9", got)
	}
	if got := []string{"fleet-0001", "fleet-0002"}; len(st2.order) != 2 || st2.order[0] != got[0] || st2.order[1] != got[1] {
		t.Fatalf("job order = %v, want %v", st2.order, got)
	}
	if st2.jobs["fleet-0001"].Op != opJobDone {
		t.Fatal("finished job did not keep its terminal record")
	}
	// Terminal records inherit the submit's request so status survives.
	if r := st2.jobs["fleet-0001"]; string(r.Req) != string(req) || r.OutDir != "/jobs/fleet-0001" {
		t.Fatalf("terminal record lost the submit context: %+v", r)
	}
	if st2.jobs["fleet-0002"].Op != opJobSubmit {
		t.Fatal("unfinished job lost its submit record")
	}
}

// TestJournalTornAndCorruptLines pins crash tolerance: a torn trailing
// line (SIGKILL mid-append) and a bit-flipped line are both dropped
// without poisoning the rest of the replay.
func TestJournalTornAndCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Op: opWorkerAdd, Name: "w1", URL: "http://h1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Op: opWorkerAdd, Name: "w2", URL: "http://h2:1"}); err != nil {
		t.Fatal(err)
	}
	j.close()

	// Flip a byte inside w2's URL (keeps valid JSON, breaks the CRC) and
	// append a torn half-record.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := []byte(string(b))
	idx := -1
	for i := range mut {
		if string(mut[i:i+2]) == "h2" {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("marker not found")
	}
	mut[idx] = 'x'
	mut = append(mut, []byte(`{"op":"worker-add","name":"w3","url":"http`)...)
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, st, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if st.dropped != 2 {
		t.Fatalf("dropped %d records, want 2 (corrupt + torn)", st.dropped)
	}
	if len(st.workers) != 1 || st.workers["w1"].URL != "http://h1:1" {
		t.Fatalf("surviving membership = %+v, want just w1", st.workers)
	}
}

// TestJournalRejectsForeignFile refuses to replay a file that is not a
// coordinator journal.
func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	rec := journalRecord{Op: opWorkerAdd, Name: "w1"}
	sum, err := rec.checksum()
	if err != nil {
		t.Fatal(err)
	}
	rec.Sum = sum
	b, _ := json.Marshal(rec)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(path); err == nil {
		t.Fatal("openJournal accepted a file without the journal header")
	}
}

// TestJournalReplaysRecordedFile replays testdata/journal-v1.jsonl, which
// an earlier coordinator wrote: a worker add, a job submission with every
// request field set, and the job's completion. Each record's checksum
// covers its bytes as re-marshalled at replay, so a change to how a record
// marshals drops it as corrupt, and an interrupted sweep written before the
// change would silently stop resuming. Every record must apply, none may
// drop, and the request must come back field for field.
func TestJournalReplaysRecordedFile(t *testing.T) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "journal-v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "coordinator.journal")
	if err := os.WriteFile(path, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if st.applied != 3 || st.dropped != 0 {
		t.Fatalf("replay applied %d dropped %d, want 3/0", st.applied, st.dropped)
	}
	if got := st.workers["w1"].URL; got != "http://127.0.0.1:8371" {
		t.Errorf("w1 URL = %q", got)
	}
	rec := st.jobs["fleet-0001"]
	if rec.Op != opJobDone || rec.File != "jobs/fleet-0001/dataset.gob" || rec.OutDir != "jobs/fleet-0001" {
		t.Fatalf("job record = %+v, want done with its submission's directory", rec)
	}

	// The request as the job type reads it, marshalled back to JSON.
	raw, err := json.Marshal(rec.Req)
	if err != nil {
		t.Fatal(err)
	}
	var req DatasetJobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(req); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"circuits":         []any{"rc16", "cla16"},
		"maps_per_circuit": 16.0,
		"shards":           8.0,
		"seed":             1.0,
		"classes":          10.0,
		"shuffle_limit":    12.0,
		"metric":           "area",
		"max_map_failures": 1.0,
		"max_attempts":     4.0,
		"failure_budget":   2.0,
		"shard_timeout_ms": 30000.0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed request = %v\nwant %v", got, want)
	}
}
