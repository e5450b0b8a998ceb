package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
)

// The coordinator journal makes the control plane crash-safe. Everything
// the coordinator must not forget — fleet membership and the lifecycle
// of dataset fan-out jobs — is appended to one JSONL file before it
// takes effect, in the same append-only spirit as genjob's
// manifest.jsonl: a header line pins the format, the last record wins,
// and a torn trailing line (SIGKILL mid-append) is skipped on replay.
// Each record additionally carries a CRC-32C of its own canonical bytes,
// so a torn or bit-rotted line anywhere in the file is detected and
// dropped rather than half-applied.
//
// A SIGKILLed coordinator restarted with the same -journal path replays
// the file, re-adopts its workers (probes then refresh their health),
// and re-spawns every journaled job that never reached a terminal state
// — the per-job genjob manifest takes over from there, re-shipping only
// shards that are missing or corrupt, so the resumed sweep merges
// byte-identical to an uninterrupted run.

// journalHeaderTag pins the journal format.
const journalHeaderTag = "slap-fleet-journal/1"

// Journal record operations.
const (
	opHeader       = "header"
	opWorkerAdd    = "worker-add"
	opWorkerRemove = "worker-remove"
	opJobSubmit    = "job-submit"
	opJobDone      = "job-done"
	opJobFailed    = "job-failed"
)

// journalRecord is one journal line. Exactly the fields for its Op are
// set; Sum is the CRC-32C (hex) of the record marshalled with Sum empty.
type journalRecord struct {
	Op string `json:"op"`

	// opHeader
	Tag string `json:"tag,omitempty"`

	// opWorkerAdd / opWorkerRemove
	Name   string `json:"name,omitempty"`
	URL    string `json:"url,omitempty"`
	Static bool   `json:"static,omitempty"`

	// opJobSubmit / opJobDone / opJobFailed. Req is the DatasetJobRequest
	// as submitted: raw bytes re-marshal to themselves, so its checksum
	// holds however the request type lays out its fields.
	Job    string          `json:"job,omitempty"`
	OutDir string          `json:"out_dir,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
	File   string          `json:"file,omitempty"` // opJobDone: merged dataset path
	Err    string          `json:"err,omitempty"`  // opJobFailed: cause

	Sum string `json:"sum,omitempty"`
}

// crcTable is the Castagnoli polynomial, the usual choice for storage
// checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the record's CRC over its canonical (Sum-less) JSON.
func (r journalRecord) checksum() (string, error) {
	r.Sum = ""
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.Checksum(b, crcTable)), nil
}

// journal is the open coordinator journal. Appends serialize on mu and
// fsync before returning: a record either survives a crash whole or is
// dropped as torn on replay — never half-applied.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// replayState is what a journal replay reconstructs.
type replayState struct {
	// workers is the surviving membership, name → record.
	workers map[string]journalRecord
	// jobs is every journaled job, name → last lifecycle record; jobs
	// whose last record is opJobSubmit are unfinished and must resume.
	jobs map[string]journalRecord
	// order preserves job-submission order for deterministic resume.
	order []string
	// applied counts records accepted during replay; dropped counts
	// records rejected (torn line, checksum mismatch).
	applied, dropped int
}

// openJournal opens (or creates) the journal at path and replays it.
func openJournal(path string) (*journal, *replayState, error) {
	st := &replayState{
		workers: make(map[string]journalRecord),
		jobs:    make(map[string]journalRecord),
	}
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	fresh := len(existing) == 0
	if !fresh {
		sc := bufio.NewScanner(bytes.NewReader(existing))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		first := true
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r journalRecord
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				// A torn line is what a kill mid-append leaves; whatever it
				// described is simply redone (worker re-registers, job
				// resumes one step earlier).
				st.dropped++
				continue
			}
			want, err := r.checksum()
			if err != nil || r.Sum != want {
				st.dropped++
				continue
			}
			if first {
				first = false
				if r.Op != opHeader || r.Tag != journalHeaderTag {
					return nil, nil, fmt.Errorf("fleet: %s is not a coordinator journal", path)
				}
				continue
			}
			switch r.Op {
			case opWorkerAdd:
				st.workers[r.Name] = r
			case opWorkerRemove:
				delete(st.workers, r.Name)
			case opJobSubmit:
				if _, ok := st.jobs[r.Job]; !ok {
					st.order = append(st.order, r.Job)
				}
				st.jobs[r.Job] = r
			case opJobDone, opJobFailed:
				// Terminal states keep the submit's request for status
				// replay but stop the job from resuming.
				if prev, ok := st.jobs[r.Job]; ok && r.Req == nil {
					r.Req, r.OutDir = prev.Req, prev.OutDir
				}
				if _, ok := st.jobs[r.Job]; !ok {
					st.order = append(st.order, r.Job)
				}
				st.jobs[r.Job] = r
			default:
				st.dropped++
				continue
			}
			st.applied++
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{f: f}
	if fresh {
		if err := j.append(journalRecord{Op: opHeader, Tag: journalHeaderTag}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, st, nil
}

// append checksums, writes and fsyncs one record. Nil journals (no
// -journal configured) accept silently, so call sites stay branch-free.
func (j *journal) append(r journalRecord) error {
	if j == nil {
		return nil
	}
	sum, err := r.checksum()
	if err != nil {
		return err
	}
	r.Sum = sum
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// close closes the journal file; nil-safe like append.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
