package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"slap/internal/dataset"
	"slap/internal/genjob"
)

// Dataset-generation jobs run server-side so a multi-hour sweep survives
// client disconnects: POST /v1/jobs/dataset answers 202 immediately and
// the job keeps running under the scheduler's worker budget; GET
// /v1/jobs/{id} polls progress. Shard files and the manifest persist
// under Config.JobsDir, so even a server crash loses at most the shards
// in flight (the directory resumes offline with internal/genjob).

// DatasetJobRequest is the JSON body of POST /v1/jobs/dataset: the sweep
// plus the job's pool width and fault knobs.
type DatasetJobRequest struct {
	genjob.Sweep
	// Workers is the shard-pool width; the scheduler clamps it to the
	// global budget (0 = whole budget).
	Workers int `json:"workers"`
	// MaxAttempts and FailureBudget are the fault knobs (see
	// genjob.Config).
	MaxAttempts   int `json:"max_attempts"`
	FailureBudget int `json:"failure_budget"`
}

// datasetJob is one server-side generation job: the shared job record
// plus its retention timer.
type datasetJob struct {
	*genjob.Job

	mu      sync.Mutex
	gcTimer *time.Timer
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
	if !job.Status().Terminal() {
		return false
	}
	s.jobs.Delete(job.ID)
	job.mu.Lock()
	if job.gcTimer != nil {
		job.gcTimer.Stop()
		job.gcTimer = nil
	}
	job.mu.Unlock()
	os.RemoveAll(job.OutDir)
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	var req DatasetJobRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	dcfg, err := s.resolveSweep(req.Sweep)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	id, outDir, err := genjob.NewJobDir(s.cfg.JobsDir, "job", &s.jobsSeq)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("creating job directory: %w", err))
		return
	}
	job, ctx := genjob.NewJob(id, outDir, req.FailureBudget)
	dj := &datasetJob{Job: job}
	s.jobs.Store(id, dj)

	go s.runDatasetJob(ctx, dj, req.Workers, genjob.Config{
		Dataset:       dcfg,
		Shards:        req.Shards,
		MaxAttempts:   req.MaxAttempts,
		FailureBudget: req.FailureBudget,
	})

	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         id,
		"status_url": "/v1/jobs/" + id,
	})
}

// resolveSweep resolves a sweep request against the registry's default
// library.
func (s *Server) resolveSweep(sw genjob.Sweep) (dataset.Config, error) {
	lib, err := s.reg.Library("")
	if err != nil {
		return dataset.Config{}, err
	}
	return sw.Resolve(lib)
}

// runDatasetJob executes one job on a shard pool of the requested width,
// clamped to the global worker budget. Every attempt inside genjob.Run is
// already panic-isolated, and the outer recover keeps even a runner bug
// from taking the server down.
func (s *Server) runDatasetJob(ctx context.Context, job *datasetJob, workers int, gcfg genjob.Config) {
	// Registered first so it runs last: the retention clock starts only
	// after the job has settled into its terminal state (including the
	// panic path below).
	defer s.scheduleJobGC(job)
	defer func() {
		if p := recover(); p != nil {
			s.metrics.panics.Inc()
			job.Fail(fmt.Sprintf("job panicked: %v", p))
		}
	}()

	// Borrow worker tokens for the job's whole lifetime: corpus sweeps
	// compete with interactive mappings under the same budget, so N
	// concurrent shards can never oversubscribe the machine.
	granted, release, err := s.sched.Acquire(ctx, workers)
	if err != nil {
		job.Fail(err.Error())
		return
	}
	defer release()
	gcfg.Workers = granted
	job.Run(ctx, gcfg, nil)
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
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var out []genjob.Status
	s.jobs.Range(func(_, v any) bool {
		out = append(out, v.(*datasetJob).Status())
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
			"id":      job.ID,
			"deleted": true,
		})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}
