package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/dataset"
	"slap/internal/genjob"
	"slap/internal/library"
)

// Dataset fan-out: POST /v1/jobs/dataset plans the sweep with genjob.Plan,
// ships each shard to a worker's /v1/shards/execute (ring affinity on the
// shard id, retries on the next replica when a worker dies mid-sweep),
// verifies and persists the returned frames into an ordinary genjob
// directory, and merges centrally — byte-identical to a single-process
// dataset.Generate with the same master seed.

// shardSHAHeaderName mirrors the worker's X-Slap-Shard-SHA256 response
// header (the payload SHA of a returned shard frame).
const shardSHAHeaderName = "X-Slap-Shard-SHA256"

// DatasetJobRequest is the JSON body of POST /v1/jobs/dataset on the
// coordinator. It deliberately mirrors the worker's single-node job
// request, so clients can point the same payload at either.
type DatasetJobRequest struct {
	Circuits       []string `json:"circuits"`
	MapsPerCircuit int      `json:"maps_per_circuit"`
	Shards         int      `json:"shards"`
	Seed           int64    `json:"seed"`
	Classes        int      `json:"classes"`
	ShuffleLimit   int      `json:"shuffle_limit"`
	Metric         string   `json:"metric"`
	MaxMapFailures int      `json:"max_map_failures"`
	// MaxAttempts bounds how many workers one shard may be tried on
	// (0 = the coordinator's MaxAttempts); FailureBudget is how many
	// shards may fail permanently before the job does.
	MaxAttempts   int `json:"max_attempts"`
	FailureBudget int `json:"failure_budget"`
	// ShardTimeoutMS bounds one shard execution on the worker (0 = the
	// worker's default request timeout).
	ShardTimeoutMS int64 `json:"shard_timeout_ms"`
}

// DatasetJobStatus is the JSON answer of GET /v1/jobs/{id}, shaped like
// the worker's single-node job status.
type DatasetJobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"` // queued, running, done, failed, canceled
	CreatedAt string  `json:"created_at"`
	ElapsedS  float64 `json:"elapsed_s"`

	ShardsTotal   int   `json:"shards_total,omitempty"`
	ShardsDone    int   `json:"shards_done"`
	ShardsReused  int   `json:"shards_reused,omitempty"`
	Retries       int   `json:"retries"`
	FailedShards  []int `json:"failed_shards,omitempty"`
	FailureBudget int   `json:"failure_budget"`

	// ShardWorkers counts shards by the worker that executed them — the
	// fan-out's affinity map.
	ShardWorkers map[string]int `json:"shard_workers,omitempty"`

	Samples     int    `json:"samples,omitempty"`
	SkippedMaps int    `json:"skipped_maps,omitempty"`
	OutDir      string `json:"out_dir,omitempty"`
	DatasetFile string `json:"dataset_file,omitempty"`
	Error       string `json:"error,omitempty"`
}

// fleetJob is one coordinator-side dataset fan-out.
type fleetJob struct {
	id      string
	created time.Time
	budget  int
	outDir  string
	cancel  context.CancelFunc

	mu           sync.Mutex
	state        string
	started      time.Time
	finished     time.Time
	shardsTotal  int
	shardsDone   int
	shardsReused int
	retries      int
	failed       []int
	shardWorkers map[string]int
	samples      int
	skipped      int
	datasetFile  string
	errMsg       string
}

func (j *fleetJob) status() DatasetJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	elapsed := time.Since(j.started).Seconds()
	if j.state == "queued" {
		elapsed = time.Since(j.created).Seconds()
	} else if !j.finished.IsZero() {
		elapsed = j.finished.Sub(j.started).Seconds()
	}
	var workers map[string]int
	if len(j.shardWorkers) > 0 {
		workers = make(map[string]int, len(j.shardWorkers))
		for k, v := range j.shardWorkers {
			workers[k] = v
		}
	}
	return DatasetJobStatus{
		ID:            j.id,
		State:         j.state,
		CreatedAt:     j.created.UTC().Format(time.RFC3339),
		ElapsedS:      elapsed,
		ShardsTotal:   j.shardsTotal,
		ShardsDone:    j.shardsDone,
		ShardsReused:  j.shardsReused,
		Retries:       j.retries,
		FailedShards:  append([]int(nil), j.failed...),
		FailureBudget: j.budget,
		ShardWorkers:  workers,
		Samples:       j.samples,
		SkippedMaps:   j.skipped,
		OutDir:        j.outDir,
		DatasetFile:   j.datasetFile,
		Error:         j.errMsg,
	}
}

func (j *fleetJob) fail(msg string) {
	j.mu.Lock()
	j.state, j.errMsg, j.finished = "failed", msg, time.Now()
	j.mu.Unlock()
}

// fleetSweepConfig resolves a job request into the normalized
// dataset.Config whose fingerprint both ends compare. It must agree with
// the worker's own resolution (same builtins, same default library) —
// that is exactly what the fingerprint cross-check enforces at runtime.
func fleetSweepConfig(req DatasetJobRequest) ([]string, dataset.Config, error) {
	names := req.Circuits
	if len(names) == 0 {
		names = []string{"rc16", "cla16"}
	}
	var graphs []*aig.AIG
	for _, n := range names {
		switch n {
		case "rc16":
			graphs = append(graphs, circuits.TrainRC16())
		case "cla16":
			graphs = append(graphs, circuits.TrainCLA16())
		default:
			return nil, dataset.Config{}, fmt.Errorf("unknown circuit %q (want rc16 or cla16)", n)
		}
	}
	var metric dataset.Metric
	switch req.Metric {
	case "", "delay":
		metric = dataset.MetricDelay
	case "area":
		metric = dataset.MetricArea
	case "adp":
		metric = dataset.MetricADP
	default:
		return nil, dataset.Config{}, fmt.Errorf("unknown metric %q (want delay, area or adp)", req.Metric)
	}
	dcfg := dataset.Config{
		Circuits:       graphs,
		Library:        library.ASAP7ish(),
		MapsPerCircuit: req.MapsPerCircuit,
		Classes:        req.Classes,
		Seed:           req.Seed,
		ShuffleLimit:   req.ShuffleLimit,
		Metric:         metric,
		MaxFailures:    req.MaxMapFailures,
		Workers:        1, // one mapping at a time per shard, same as genjob
	}
	dcfg, err := dcfg.Normalize()
	if err != nil {
		return nil, dataset.Config{}, err
	}
	dcfg.Workers = 1
	return names, dcfg, nil
}

func (c *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req DatasetJobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	if req.MapsPerCircuit <= 0 {
		writeError(w, http.StatusBadRequest, errors.New("maps_per_circuit must be positive"))
		return
	}
	names, dcfg, err := fleetSweepConfig(req)
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

	id := fmt.Sprintf("fleet-%04d", c.jobsSeq.Add(1))
	outDir := filepath.Join(c.cfg.JobsDir, id)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating job directory: %w", err))
		return
	}
	// Journal the submission before the job exists anywhere else: a crash
	// from here on leaves a submit record with no terminal record, which is
	// exactly what makes the restarted coordinator resume it.
	if err := c.journal.append(journalRecord{Op: opJobSubmit, Job: id, OutDir: outDir, Req: &req}); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("journaling job: %w", err))
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &fleetJob{
		id:           id,
		created:      time.Now(),
		budget:       req.FailureBudget,
		outDir:       outDir,
		cancel:       cancel,
		state:        "queued",
		shardWorkers: make(map[string]int),
	}
	c.jobs.Store(id, job)

	go c.runFleetJob(ctx, job, req, names, dcfg)

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
	writeJSON(w, http.StatusOK, v.(*fleetJob).status())
}

// resumeJobs re-creates journaled jobs after a restart: finished jobs
// reappear in status queries, and every job whose last journal record is
// the submission resumes — its genjob manifest re-ships only the shards
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
		job := &fleetJob{
			id:           id,
			created:      time.Now(),
			outDir:       rec.OutDir,
			cancel:       func() {},
			state:        "queued",
			shardWorkers: make(map[string]int),
		}
		if rec.Req != nil {
			job.budget = rec.Req.FailureBudget
		}
		var start func()
		switch {
		case rec.Op == opJobDone:
			job.state = "done"
			job.started, job.finished = job.created, job.created
			job.datasetFile = rec.File
		case rec.Op == opJobFailed:
			job.state = "failed"
			job.started, job.finished = job.created, job.created
			job.errMsg = rec.Err
		case rec.Req == nil:
			job.state = "failed"
			job.started, job.finished = job.created, job.created
			job.errMsg = "journal lost the job request"
		default:
			names, dcfg, err := fleetSweepConfig(*rec.Req)
			if err != nil {
				job.state = "failed"
				job.started, job.finished = job.created, job.created
				job.errMsg = err.Error()
				break
			}
			ctx, cancel := context.WithCancel(context.Background())
			job.cancel = cancel
			req := *rec.Req
			start = func() { go c.runFleetJob(ctx, job, req, names, dcfg) }
		}
		c.jobs.Store(id, job)
		if start != nil {
			start()
		}
	}
}

// runFleetJob drives one sweep: plan, ship every shard not already
// journaled done, then merge with the stock genjob machinery.
func (c *Coordinator) runFleetJob(ctx context.Context, job *fleetJob, req DatasetJobRequest, names []string, dcfg dataset.Config) {
	defer func() {
		// Journal the terminal state once it settles (this runs after the
		// recover below). A crash or cancel before this point leaves the
		// submit record as the job's last word, so a journal-replaying
		// restart resumes it.
		switch st := job.status(); st.State {
		case "done":
			c.journal.append(journalRecord{Op: opJobDone, Job: job.id, File: st.DatasetFile})
		case "failed":
			c.journal.append(journalRecord{Op: opJobFailed, Job: job.id, Err: st.Error})
		}
	}()
	defer job.cancel()
	defer func() {
		if p := recover(); p != nil {
			job.fail(fmt.Sprintf("fleet job panicked: %v", p))
		}
	}()

	shards := req.Shards
	if shards <= 0 {
		shards = len(dcfg.Circuits)
	}
	specs := genjob.Plan(len(dcfg.Circuits), dcfg.MapsPerCircuit, shards)
	fp := genjob.Fingerprint(dcfg)

	journal, err := genjob.OpenJournal(job.outDir, fp, len(specs))
	if err != nil {
		job.fail(fmt.Sprintf("opening job manifest: %v", err))
		return
	}

	job.mu.Lock()
	job.state, job.started, job.shardsTotal = "running", time.Now(), len(specs)
	job.mu.Unlock()

	// A resumed directory re-ships only what is missing or corrupt.
	var pending []genjob.Spec
	for _, sp := range specs {
		if journal.Done(job.outDir, fp, sp) {
			job.mu.Lock()
			job.shardsDone++
			job.shardsReused++
			job.mu.Unlock()
			continue
		}
		pending = append(pending, sp)
	}

	conc := c.cfg.ShardConcurrency
	if conc <= 0 {
		c.mu.Lock()
		conc = 2 * len(c.workers)
		c.mu.Unlock()
		if conc < 1 {
			conc = 1
		}
	}
	maxAttempts := req.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = c.cfg.MaxAttempts
	}

	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, conc)
		mu  sync.Mutex // guards journal writes and the failed count
	)
	for _, sp := range pending {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(sp genjob.Spec) {
			defer func() { <-sem; wg.Done() }()
			workerName, sha, attempts, err := c.shipShard(ctx, job, req, names, fp, sp, maxAttempts)
			// Journal writes serialize on mu: the manifest file is
			// append-only but not concurrency-safe.
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				journal.RecordFailed(sp, attempts, err)
				c.metrics.shards.With("failed").Inc()
				job.mu.Lock()
				job.failed = append(job.failed, sp.Shard)
				overBudget := len(job.failed) > job.budget
				job.mu.Unlock()
				if overBudget {
					job.cancel() // sink the job: no point shipping the rest
				}
				return
			}
			journal.RecordDone(sp, sha, attempts)
			c.metrics.shards.With("done").Inc()
			job.mu.Lock()
			job.shardsDone++
			job.shardWorkers[workerName]++
			job.mu.Unlock()
		}(sp)
	}
	wg.Wait()
	journal.Close()

	job.mu.Lock()
	nFailed := len(job.failed)
	job.mu.Unlock()
	if ctx.Err() != nil && nFailed <= job.budget {
		job.mu.Lock()
		job.state, job.errMsg, job.finished = "canceled", "canceled", time.Now()
		job.mu.Unlock()
		return
	}
	if nFailed > job.budget {
		job.fail(fmt.Sprintf("%d shards failed permanently (budget %d)", nFailed, job.budget))
		return
	}

	// Merge centrally with the stock machinery: every frame on disk has
	// already passed full verification once on receipt, and Merge verifies
	// everything again before assembly.
	ds, rep, err := genjob.Merge(genjob.Config{
		Dataset:       dcfg,
		OutDir:        job.outDir,
		Shards:        req.Shards,
		FailureBudget: req.FailureBudget,
	})
	if err != nil {
		job.fail(fmt.Sprintf("merging shards: %v", err))
		return
	}
	file := filepath.Join(job.outDir, "dataset.gob")
	if err := ds.SaveFile(file); err != nil {
		job.fail(fmt.Sprintf("saving merged dataset: %v", err))
		return
	}
	job.mu.Lock()
	job.state, job.finished = "done", time.Now()
	job.samples = ds.Len()
	job.skipped = rep.SkippedMaps
	job.datasetFile = file
	job.mu.Unlock()
}

// shipShard executes one shard remotely: ring affinity on the shard id,
// walking replicas on failure under the fleet failure budget, verifying
// and persisting the returned frame. Returns the executing worker's name
// and the frame's payload SHA for the journal.
func (c *Coordinator) shipShard(ctx context.Context, job *fleetJob, req DatasetJobRequest, names []string, fp string, sp genjob.Spec, maxAttempts int) (string, string, int, error) {
	body, err := json.Marshal(map[string]any{
		"circuits":         names,
		"maps_per_circuit": req.MapsPerCircuit,
		"classes":          req.Classes,
		"seed":             req.Seed,
		"shuffle_limit":    req.ShuffleLimit,
		"metric":           req.Metric,
		"max_map_failures": req.MaxMapFailures,
		"fingerprint":      fp,
		"shard":            sp.Shard,
		"circuit":          sp.Circuit,
		"start":            sp.Start,
		"end":              sp.End,
		"timeout_ms":       req.ShardTimeoutMS,
	})
	if err != nil {
		return "", "", 0, err
	}
	key := ShardKey(sp.Shard)
	order := c.lookup(key)
	if len(order) == 0 {
		return "", "", 0, errors.New("fleet has no workers")
	}
	rng := rand.New(rand.NewSource(int64(key) ^ 0x7f4a7c15))
	var lastErr error
	idx := 0
	attempt := 0
	for attempt < maxAttempts {
		if ctx.Err() != nil {
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			break
		}
		// Next live candidate in ring preference order, sharing the request
		// path's breaker-aware scan. Unlike the request path, saturation
		// does not shed — a sweep would rather wait for a slot than fail a
		// shard.
		pick := c.pickWorker(order, &idx, nil)
		attempt++
		if pick.wk == nil {
			lastErr = errors.New("no live worker with a free slot")
			c.noteShardRetry(job)
			genjob.Backoff(ctx, c.cfg.BackoffBase, c.cfg.BackoffMax, attempt, rng)
			continue
		}
		wk := pick.wk
		frame, err := c.execShardOn(ctx, wk, body)
		c.releaseSlot(wk)
		if err != nil {
			if isTransport(err) {
				c.reportProxyFailure(wk, err)
				wk.brk.Failure()
			} else {
				// The worker answered (a non-200): transport-wise it is
				// serving, so the breaker stays closed.
				wk.brk.Success()
			}
			lastErr = fmt.Errorf("worker %s: %w", wk.name, err)
			c.noteShardRetry(job)
			genjob.Backoff(ctx, c.cfg.BackoffBase, c.cfg.BackoffMax, attempt, rng)
			continue
		}
		c.reportProxySuccess(wk)
		wk.brk.Success()
		// Full verification before the frame touches disk: magic, shard id,
		// checksum, decode, spec and fingerprint agreement.
		sha, err := genjob.VerifyShardBytes(frame, wk.name, sp, fp)
		if err != nil {
			lastErr = err
			c.noteShardRetry(job)
			continue
		}
		if err := genjob.WriteShardBytes(job.outDir, sp, frame); err != nil {
			return "", "", attempt, fmt.Errorf("persisting shard %d: %w", sp.Shard, err)
		}
		return wk.name, sha, attempt, nil
	}
	return "", "", attempt, fmt.Errorf("shard %d failed after %d attempt(s): %w", sp.Shard, attempt, lastErr)
}

func (c *Coordinator) noteShardRetry(job *fleetJob) {
	c.metrics.retries.Inc()
	job.mu.Lock()
	job.retries++
	job.mu.Unlock()
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
