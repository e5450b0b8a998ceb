package genjob

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Status is the JSON answer of GET /v1/jobs/{id}, on slap-serve and on the
// fleet coordinator alike.
type Status struct {
	ID        string  `json:"id"`
	State     string  `json:"state"` // queued, running, done, failed, canceled
	CreatedAt string  `json:"created_at"`
	ElapsedS  float64 `json:"elapsed_s"`
	// Workers is the width of the job's shard pool.
	Workers int `json:"workers,omitempty"`

	ShardsTotal   int   `json:"shards_total,omitempty"`
	ShardsDone    int   `json:"shards_done"`
	ShardsReused  int   `json:"shards_reused,omitempty"`
	Retries       int   `json:"retries"`
	CorruptShards int   `json:"corrupt_shards"`
	FailedShards  []int `json:"failed_shards,omitempty"` // ascending
	FailureBudget int   `json:"failure_budget"`

	// ShardWorkers counts shards by the worker that produced them, for
	// sweeps that ship their shards out.
	ShardWorkers map[string]int `json:"shard_workers,omitempty"`

	Samples     int    `json:"samples,omitempty"`
	SkippedMaps int    `json:"skipped_maps,omitempty"`
	OutDir      string `json:"out_dir,omitempty"`
	DatasetFile string `json:"dataset_file,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Terminal reports whether the job has finished: done, failed or canceled.
func (st Status) Terminal() bool {
	return st.State == "done" || st.State == "failed" || st.State == "canceled"
}

// Job is one sweep run as a service job. It folds the runner's events into
// its counts while the sweep runs and settles from the runner's result.
type Job struct {
	// ID and OutDir (the sweep's directory) are fixed at creation.
	ID     string
	OutDir string

	budget  int
	created time.Time
	cancel  context.CancelFunc

	mu           sync.Mutex
	state        string
	started      time.Time
	finished     time.Time
	workers      int
	shardsTotal  int
	done         map[int]bool // shards whose verified file is on disk
	reused       int
	retries      int
	corrupt      int
	failed       []int
	shardWorkers map[string]int
	samples      int
	skipped      int
	datasetFile  string
	errMsg       string
}

// NewJobDir creates a new job's directory under root, named prefix-NNNN
// with the next number seq yields. The directory is created exclusively,
// and a name that already exists is skipped, so a job never runs into a
// directory an earlier process left behind.
func NewJobDir(root, prefix string, seq *atomic.Int64) (id, dir string, err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", "", err
	}
	for {
		id = fmt.Sprintf("%s-%04d", prefix, seq.Add(1))
		dir = filepath.Join(root, id)
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return id, dir, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", "", err
		}
	}
}

// NewJob returns a queued job and the context its sweep runs under, which
// Cancel, and the job settling, cancel.
func NewJob(id, outDir string, failureBudget int) (*Job, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID:           id,
		OutDir:       outDir,
		budget:       failureBudget,
		created:      time.Now(),
		cancel:       cancel,
		state:        "queued",
		done:         make(map[int]bool),
		shardWorkers: make(map[string]int),
	}, ctx
}

// Cancel cancels the job's sweep.
func (j *Job) Cancel() { j.cancel() }

// Run runs the job's sweep into its directory and settles the job from
// the result, saving the merged dataset as dataset.gob there. The
// runner's events reach the job's counts first and cfg.Progress after.
func (j *Job) Run(ctx context.Context, cfg Config, exec Executor) {
	progress := cfg.Progress
	cfg.OutDir = j.OutDir
	cfg.Progress = func(e Event) {
		j.observe(e)
		if progress != nil {
			progress(e)
		}
	}
	j.mu.Lock()
	j.state, j.started, j.workers = "running", time.Now(), cfg.Workers
	j.mu.Unlock()

	ds, rep, err := Run(ctx, cfg, exec)
	file := filepath.Join(j.OutDir, "dataset.gob")
	if err == nil {
		if serr := ds.SaveFile(file); serr != nil {
			err = fmt.Errorf("saving merged dataset: %w", serr)
		}
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if rep != nil {
		j.shardsTotal, j.retries, j.corrupt = rep.Shards, rep.Retries, rep.Corrupt
		j.failed, j.skipped = rep.FailedShards, rep.SkippedMaps
	}
	switch {
	case errors.Is(err, context.Canceled):
		j.settleLocked("canceled", "canceled")
	case err != nil:
		j.settleLocked("failed", err.Error())
	default:
		j.samples, j.datasetFile = ds.Len(), file
		j.settleLocked("done", "")
	}
}

// observe folds one runner event into the job's counts.
func (j *Job) observe(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch e.Kind {
	case "plan":
		j.shardsTotal = e.Shard
	case "reuse":
		j.done[e.Shard] = true
		j.reused++
	case "done":
		j.done[e.Shard] = true
		if e.Worker != "" {
			j.shardWorkers[e.Worker]++
		}
	case "retry":
		j.retries++
	case "corrupt":
		j.corrupt++
		delete(j.done, e.Shard) // it re-runs
	case "failed":
		j.failed = append(j.failed, e.Shard)
	}
}

// Fail settles the job as failed: a sweep that never ran, a panic, or a
// failure replayed from a journal.
func (j *Job) Fail(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.settleLocked("failed", msg)
}

// Done settles the job as done with a merged dataset already on disk, as
// a completion replayed from a journal.
func (j *Job) Done(datasetFile string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.datasetFile = datasetFile
	j.settleLocked("done", "")
}

func (j *Job) settleLocked(state, msg string) {
	j.state, j.errMsg, j.finished = state, msg, time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.cancel()
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	elapsed := time.Since(j.started).Seconds()
	if j.state == "queued" {
		elapsed = time.Since(j.created).Seconds()
	} else if !j.finished.IsZero() {
		elapsed = j.finished.Sub(j.started).Seconds()
	}
	failed := slices.Clone(j.failed)
	slices.Sort(failed)
	return Status{
		ID:            j.ID,
		State:         j.state,
		CreatedAt:     j.created.UTC().Format(time.RFC3339),
		ElapsedS:      elapsed,
		Workers:       j.workers,
		ShardsTotal:   j.shardsTotal,
		ShardsDone:    len(j.done),
		ShardsReused:  j.reused,
		Retries:       j.retries,
		CorruptShards: j.corrupt,
		FailedShards:  failed,
		FailureBudget: j.budget,
		ShardWorkers:  maps.Clone(j.shardWorkers),
		Samples:       j.samples,
		SkippedMaps:   j.skipped,
		OutDir:        j.OutDir,
		DatasetFile:   j.datasetFile,
		Error:         j.errMsg,
	}
}
