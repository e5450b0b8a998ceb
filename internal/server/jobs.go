package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/genjob"
)

// Dataset-generation jobs run server-side so a multi-hour sweep survives
// client disconnects: POST /v1/jobs/dataset answers 202 immediately and
// the job keeps running under the scheduler's worker budget; GET
// /v1/jobs/{id} polls progress. Shard files and the manifest persist
// under Config.JobsDir, so even a server crash loses at most the shards
// in flight (the directory resumes offline with internal/genjob).

// DatasetJobRequest is the JSON body of POST /v1/jobs/dataset.
type DatasetJobRequest struct {
	// Circuits names built-in training designs (rc16, cla16); empty means
	// both, the paper's training set.
	Circuits []string `json:"circuits"`
	// MapsPerCircuit is the number of random-shuffle mappings per circuit.
	MapsPerCircuit int `json:"maps_per_circuit"`
	// Shards is the requested shard count (0 = one per circuit).
	Shards int `json:"shards"`
	// Seed is the master seed; the merged dataset is byte-identical to a
	// single-process dataset.Generate with it.
	Seed int64 `json:"seed"`
	// Classes, ShuffleLimit and Metric mirror dataset.Config.
	Classes      int    `json:"classes"`
	ShuffleLimit int    `json:"shuffle_limit"`
	Metric       string `json:"metric"`
	// Workers is the shard-pool width; the scheduler clamps it to the
	// global budget (0 = whole budget).
	Workers int `json:"workers"`
	// MaxAttempts, FailureBudget and MaxMapFailures are the fault knobs
	// (see genjob.Config and dataset.Config.MaxFailures).
	MaxAttempts    int `json:"max_attempts"`
	FailureBudget  int `json:"failure_budget"`
	MaxMapFailures int `json:"max_map_failures"`
}

// DatasetJobStatus is the JSON answer of GET /v1/jobs/{id}.
type DatasetJobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"` // queued, running, done, failed, canceled
	CreatedAt string  `json:"created_at"`
	ElapsedS  float64 `json:"elapsed_s"`
	Workers   int     `json:"workers,omitempty"`

	ShardsTotal   int   `json:"shards_total,omitempty"`
	ShardsDone    int   `json:"shards_done"`
	Retries       int   `json:"retries"`
	CorruptShards int   `json:"corrupt_shards"`
	FailedShards  []int `json:"failed_shards,omitempty"`
	FailureBudget int   `json:"failure_budget"`

	Samples     int    `json:"samples,omitempty"`
	SkippedMaps int    `json:"skipped_maps,omitempty"`
	OutDir      string `json:"out_dir,omitempty"`
	DatasetFile string `json:"dataset_file,omitempty"`
	Error       string `json:"error,omitempty"`
}

// datasetJob is one server-side generation job.
type datasetJob struct {
	id      string
	created time.Time
	budget  int
	workers int
	outDir  string
	cancel  context.CancelFunc

	mu          sync.Mutex
	gcTimer     *time.Timer
	state       string
	started     time.Time
	finished    time.Time
	shardsTotal int
	shardsDone  int
	retries     int
	corrupt     int
	failed      []int
	samples     int
	skipped     int
	datasetFile string
	errMsg      string
}

func (j *datasetJob) status() DatasetJobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	elapsed := time.Since(j.started).Seconds()
	if j.state == "queued" {
		elapsed = time.Since(j.created).Seconds()
	} else if !j.finished.IsZero() {
		elapsed = j.finished.Sub(j.started).Seconds()
	}
	return DatasetJobStatus{
		ID:            j.id,
		State:         j.state,
		CreatedAt:     j.created.UTC().Format(time.RFC3339),
		ElapsedS:      elapsed,
		Workers:       j.workers,
		ShardsTotal:   j.shardsTotal,
		ShardsDone:    j.shardsDone,
		Retries:       j.retries,
		CorruptShards: j.corrupt,
		FailedShards:  append([]int(nil), j.failed...),
		FailureBudget: j.budget,
		Samples:       j.samples,
		SkippedMaps:   j.skipped,
		OutDir:        j.outDir,
		DatasetFile:   j.datasetFile,
		Error:         j.errMsg,
	}
}

// budgetExceeded reports whether the job failed because more shards
// failed permanently than its budget allowed — the condition /healthz
// flags as degraded.
func (j *datasetJob) budgetExceeded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == "failed" && len(j.failed) > j.budget
}

// terminal reports whether the job has finished (done, failed or canceled)
// — the states in which its directory may be garbage-collected.
func (j *datasetJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == "done" || j.state == "failed" || j.state == "canceled"
}

// scheduleJobGC arms the retention timer once a job reaches a terminal
// state, after which the job record and its on-disk shard directory are
// removed. Negative retention keeps finished jobs forever.
func (s *Server) scheduleJobGC(job *datasetJob) {
	retention := s.cfg.JobRetention
	if retention < 0 {
		return
	}
	if retention == 0 {
		retention = DefaultJobRetention
	}
	t := time.AfterFunc(retention, func() { s.removeJob(job) })
	job.mu.Lock()
	job.gcTimer = t
	job.mu.Unlock()
}

// removeJob deletes a terminal job: the registry entry goes first so no new
// status reads resolve it, then the shard directory. Running jobs are left
// untouched. Reports whether the job was removed.
func (s *Server) removeJob(job *datasetJob) bool {
	if !job.terminal() {
		return false
	}
	s.jobs.Delete(job.id)
	job.mu.Lock()
	if job.gcTimer != nil {
		job.gcTimer.Stop()
		job.gcTimer = nil
	}
	job.mu.Unlock()
	os.RemoveAll(job.outDir)
	return true
}

// builtinCircuit resolves a named training design.
func builtinCircuit(name string) (*aig.AIG, error) {
	switch name {
	case "rc16":
		return circuits.TrainRC16(), nil
	case "cla16":
		return circuits.TrainCLA16(), nil
	default:
		return nil, fmt.Errorf("unknown circuit %q (want rc16 or cla16)", name)
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	var req DatasetJobRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	if req.MapsPerCircuit <= 0 {
		writeError(w, http.StatusBadRequest, errors.New("maps_per_circuit must be positive"))
		return
	}
	dcfg, err := s.datasetSweepConfig(req.Circuits, req.MapsPerCircuit, req.Classes, req.Seed, req.ShuffleLimit, req.Metric, req.MaxMapFailures)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dcfg.Workers = 0 // local shard pool decides (genjob defaults it to 1)

	id := fmt.Sprintf("job-%04d", s.jobsSeq.Add(1))
	outDir := filepath.Join(s.cfg.JobsDir, id)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating job directory: %w", err))
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &datasetJob{
		id:      id,
		created: time.Now(),
		budget:  req.FailureBudget,
		workers: req.Workers,
		outDir:  outDir,
		cancel:  cancel,
		state:   "queued",
	}
	s.jobs.Store(id, job)

	gcfg := genjob.Config{
		Dataset:       dcfg,
		OutDir:        outDir,
		Shards:        req.Shards,
		MaxAttempts:   req.MaxAttempts,
		FailureBudget: req.FailureBudget,
	}
	go s.runDatasetJob(ctx, job, gcfg)

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         id,
		"status_url": "/v1/jobs/" + id,
	})
}

// runDatasetJob executes one job under the global worker budget. It owns
// the job's state transitions; everything inside genjob.Run is already
// panic-isolated per shard, and the outer recover keeps even a runner bug
// from taking the server down.
func (s *Server) runDatasetJob(ctx context.Context, job *datasetJob, gcfg genjob.Config) {
	// Registered first so it runs last: the retention clock starts only
	// after the job has settled into its terminal state (including the
	// panic path below).
	defer s.scheduleJobGC(job)
	defer job.cancel()
	defer func() {
		if p := recover(); p != nil {
			s.metrics.panics.Inc()
			job.mu.Lock()
			job.state, job.errMsg, job.finished = "failed", fmt.Sprintf("job panicked: %v", p), time.Now()
			job.mu.Unlock()
		}
	}()

	// Borrow worker tokens for the job's whole lifetime: corpus sweeps
	// compete with interactive mappings under the same budget, so N
	// concurrent shards can never oversubscribe the machine.
	granted, release, err := s.sched.Acquire(ctx, job.workers)
	if err != nil {
		job.mu.Lock()
		job.state, job.errMsg, job.started, job.finished = "failed", err.Error(), time.Now(), time.Now()
		job.mu.Unlock()
		return
	}
	defer release()

	gcfg.Workers = granted
	gcfg.Progress = func(e genjob.Event) {
		job.mu.Lock()
		defer job.mu.Unlock()
		switch e.Kind {
		case "plan":
			job.shardsTotal = e.Shard
		case "reuse", "done":
			job.shardsDone++
		case "retry":
			job.retries++
		case "corrupt":
			job.corrupt++
			job.shardsDone-- // it will be re-run
		}
	}

	job.mu.Lock()
	job.state, job.started, job.workers = "running", time.Now(), granted
	job.mu.Unlock()

	ds, rep, err := genjob.Run(ctx, gcfg)

	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	if rep != nil {
		job.shardsTotal = rep.Shards
		job.retries = rep.Retries
		job.corrupt = rep.Corrupt
		job.failed = rep.FailedShards
		job.skipped = rep.SkippedMaps
	}
	switch {
	case errors.Is(err, context.Canceled):
		job.state, job.errMsg = "canceled", "canceled by client"
	case err != nil:
		job.state, job.errMsg = "failed", err.Error()
	default:
		job.samples = ds.Len()
		file := filepath.Join(job.outDir, "dataset.gob")
		if werr := ds.SaveFile(file); werr != nil {
			job.state, job.errMsg = "failed", fmt.Sprintf("saving merged dataset: %v", werr)
			return
		}
		job.datasetFile = file
		job.state = "done"
	}
}

func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) (*datasetJob, bool) {
	id := r.PathValue("id")
	v, ok := s.jobs.Load(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return nil, false
	}
	return v.(*datasetJob), true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var out []DatasetJobStatus
	s.jobs.Range(func(_, v any) bool {
		out = append(out, v.(*datasetJob).status())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleJobCancel serves DELETE /v1/jobs/{id}: a running (or queued) job is
// canceled and keeps its directory until it settles and retention expires; a
// terminal job is removed immediately, shard directory included.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	if s.removeJob(job) {
		writeJSON(w, http.StatusOK, map[string]any{
			"id":      job.id,
			"deleted": true,
		})
		return
	}
	job.cancel()
	writeJSON(w, http.StatusOK, job.status())
}
