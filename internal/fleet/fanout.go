package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"slap/internal/dataset"
	"slap/internal/genjob"
	"slap/internal/library"
)

// Dataset fan-out: POST /v1/jobs/dataset runs the sweep through genjob's
// runner, the same one slap-train and slap-serve use, with an executor
// that ships each attempt at a shard to a worker's /v1/shards/execute
// (ring affinity on the shard id, the next replica on each retry, so a
// worker that dies mid-sweep costs retries, not the job). The runner
// verifies, persists, journals and merges the returned frames — the
// merged dataset is byte-identical to a single-process dataset.Generate
// with the same master seed.

// shardSHAHeaderName mirrors the worker's X-Slap-Shard-SHA256 response
// header (the payload SHA of a returned shard frame).
const shardSHAHeaderName = "X-Slap-Shard-SHA256"

// DatasetJobRequest is the JSON body of POST /v1/jobs/dataset on the
// coordinator: the sweep, as slap-serve's job request carries it, plus the
// fleet's fault knobs.
type DatasetJobRequest struct {
	genjob.Sweep
	// MaxAttempts bounds how many workers one shard may be tried on
	// (0 = the coordinator's MaxAttempts); FailureBudget is how many
	// shards may fail permanently before the job does.
	MaxAttempts   int `json:"max_attempts"`
	FailureBudget int `json:"failure_budget"`
	// ShardTimeoutMS bounds one shard execution on the worker (0 = the
	// worker's default request timeout).
	ShardTimeoutMS int64 `json:"shard_timeout_ms"`
}

func (c *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var raw json.RawMessage // journaled as submitted
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&raw); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	var req DatasetJobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	dcfg, err := req.Resolve(library.ASAP7ish())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	workerCount := len(c.workers)
	c.mu.Unlock()
	if workerCount == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("fleet has no workers"))
		return
	}

	id, outDir, err := genjob.NewJobDir(c.cfg.JobsDir, "fleet", &c.jobsSeq)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating job directory: %w", err))
		return
	}
	// Journal the submission before the job exists anywhere else: a crash
	// from here on leaves a submit record with no terminal record, which is
	// exactly what makes the restarted coordinator resume it.
	if err := c.journal.append(journalRecord{Op: opJobSubmit, Job: id, OutDir: outDir, Req: raw}); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("journaling job: %w", err))
		return
	}
	job, ctx := genjob.NewJob(id, outDir, req.FailureBudget)
	c.jobs.Store(id, job)

	go c.runFleetJob(ctx, job, req, dcfg)

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         id,
		"status_url": "/v1/jobs/" + id,
	})
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := c.jobs.Load(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, v.(*genjob.Job).Status())
}

// resumeJobs re-creates journaled jobs after a restart: finished jobs
// reappear in status queries, and every job whose last journal record is
// the submission resumes — the runner's manifest re-ships only the shards
// that are missing or corrupt, so the merged dataset comes out
// byte-identical to an uninterrupted run.
func (c *Coordinator) resumeJobs(st *replayState) {
	var maxSeq int64
	for _, id := range st.order {
		var seq int64
		if _, err := fmt.Sscanf(id, "fleet-%d", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
	}
	c.jobsSeq.Store(maxSeq)
	for _, id := range st.order {
		rec := st.jobs[id]
		var req DatasetJobRequest
		reqErr := json.Unmarshal(rec.Req, &req)
		job, ctx := genjob.NewJob(id, rec.OutDir, req.FailureBudget)
		var dcfg dataset.Config
		switch {
		case rec.Op == opJobDone:
			job.Done(rec.File)
		case rec.Op == opJobFailed:
			job.Fail(rec.Err)
		case reqErr != nil:
			job.Fail("journal lost the job request")
		default:
			var err error
			if dcfg, err = req.Resolve(library.ASAP7ish()); err != nil {
				job.Fail(err.Error())
			}
		}
		c.jobs.Store(id, job)
		if !job.Status().Terminal() {
			go c.runFleetJob(ctx, job, req, dcfg)
		}
	}
}

// runFleetJob runs one sweep through genjob's runner, resuming whatever
// the job directory already holds, with each attempt shipped to a worker.
func (c *Coordinator) runFleetJob(ctx context.Context, job *genjob.Job, req DatasetJobRequest, dcfg dataset.Config) {
	defer func() {
		// Journal the terminal state once it settles (this runs after the
		// recover below). A crash or cancel before this point leaves the
		// submit record as the job's last word, so a journal-replaying
		// restart resumes it.
		switch st := job.Status(); st.State {
		case "done":
			c.journal.append(journalRecord{Op: opJobDone, Job: st.ID, File: st.DatasetFile})
		case "failed":
			c.journal.append(journalRecord{Op: opJobFailed, Job: st.ID, Err: st.Error})
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			job.Fail(fmt.Sprintf("fleet job panicked: %v", p))
		}
	}()

	workers := c.cfg.ShardConcurrency
	if workers <= 0 {
		c.mu.Lock()
		workers = max(1, 2*len(c.workers))
		c.mu.Unlock()
	}
	maxAttempts := req.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = c.cfg.MaxAttempts
	}
	job.Run(ctx, genjob.Config{
		Dataset:       dcfg,
		Shards:        req.Shards,
		Workers:       workers,
		Resume:        true,
		MaxAttempts:   maxAttempts,
		BackoffBase:   c.cfg.BackoffBase,
		BackoffMax:    c.cfg.BackoffMax,
		FailureBudget: req.FailureBudget,
		Progress: func(e genjob.Event) {
			switch e.Kind {
			case "retry":
				c.metrics.retries.Inc()
			case "done", "failed":
				c.metrics.shards.With(e.Kind).Inc()
			}
		},
	}, c.shardExecutor(req, genjob.Fingerprint(dcfg)))
}

// shardExecutor ships each attempt at a shard to a worker: the shard's
// ring replicas in preference order, resuming on every attempt where the
// shard's last attempt left off. Unlike the request path, saturation does
// not shed — a sweep would rather retry than fail a shard. A transport
// error strikes the worker's health and its breaker unless the job itself
// canceled the attempt; a worker that answers keeps both clean, whatever
// it answered.
func (c *Coordinator) shardExecutor(req DatasetJobRequest, fp string) genjob.Executor {
	var mu sync.Mutex
	cursors := make(map[int]int) // shard → ring position of its next attempt
	return func(ctx context.Context, sp genjob.Spec) ([]byte, string, error) {
		body, err := json.Marshal(genjob.ShardRequest{Sweep: req.Sweep, Spec: sp, Fingerprint: fp, TimeoutMS: req.ShardTimeoutMS})
		if err != nil {
			return nil, "", err
		}
		order := c.lookup(ShardKey(sp.Shard))
		mu.Lock()
		idx := cursors[sp.Shard]
		pick := c.pickWorker(order, &idx, nil)
		cursors[sp.Shard] = idx
		mu.Unlock()
		wk := pick.wk
		if wk == nil {
			return nil, "", errors.New("no live worker with a free slot")
		}
		frame, err := c.execShardOn(ctx, wk, body)
		var transportErr error
		if isTransport(err) {
			transportErr = err
		}
		c.settle(ctx, pick, transportErr, false)
		if err != nil {
			return nil, "", fmt.Errorf("worker %s: %w", wk.name, err)
		}
		return frame, wk.name, nil
	}
}

// transportError marks errors from the HTTP client itself (as opposed to
// worker-answered failures) — only these strike worker health.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// execShardOn performs one shard execution round trip against one worker.
func (c *Coordinator) execShardOn(ctx context.Context, wk *worker, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.url+"/v1/shards/execute", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("shard execution answered %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	frame, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &transportError{err: err}
	}
	return frame, nil
}
