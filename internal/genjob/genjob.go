// Package genjob runs a dataset.Config sweep as a set of deterministic,
// seed-addressed shards with the fault tolerance a corpus-scale run needs
// (ROADMAP: "Sharded dataset generation", OpenABC-D-sized sweeps). Run is
// the one sweep runner: slap-train, slap-serve's dataset jobs and the fleet
// coordinator's fan-out all go through it, the coordinator with an
// Executor that ships each attempt to a worker.
//
//   - each shard is a contiguous mapping range of one circuit, so its
//     results depend only on the master seed and the map indices — never
//     on worker count, shard count, or which process ran it;
//   - shards execute on a bounded pool, each attempt under recover(), so
//     one panicking mapping costs one retry, not the job;
//   - failed attempts retry with capped exponential backoff plus jitter,
//     giving up per-shard after MaxAttempts; a run whose failed shards
//     exceed FailureBudget cancels the shards still pending;
//   - every attempt's frame, produced here or elsewhere, is verified
//     before it is written; written shards are journaled in the job's
//     manifest, an append-only Log, so a crashed or SIGKILLed run
//     resumes from disk, re-running only missing or corrupt shards;
//   - the merge re-verifies every shard file before assembly, and the
//     result is byte-identical to a single-process dataset.Generate with
//     the same master seed.
package genjob

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"slap/internal/dataset"
	"slap/internal/par"
)

// Spec addresses one shard: the mapping range [Start, End) of one circuit.
type Spec struct {
	Shard   int `json:"shard"`
	Circuit int `json:"circuit"`
	Start   int `json:"start"`
	End     int `json:"end"`
}

// Maps returns the number of mappings the shard covers.
func (s Spec) Maps() int { return s.End - s.Start }

// Plan deterministically splits a sweep of circuits×mapsPerCircuit random
// mappings into shards. Every circuit gets at least one shard and a shard
// never spans circuits, so the realised shard count can differ from the
// request (it is len of the returned slice); ranges within a circuit are
// as even as integer division allows.
func Plan(circuits, mapsPerCircuit, shards int) []Spec {
	if circuits <= 0 || mapsPerCircuit <= 0 {
		return nil
	}
	if shards < circuits {
		shards = circuits
	}
	if max := circuits * mapsPerCircuit; shards > max {
		shards = max
	}
	base, extra := shards/circuits, shards%circuits
	specs := make([]Spec, 0, shards)
	id := 0
	for ci := 0; ci < circuits; ci++ {
		n := base
		if ci < extra {
			n++
		}
		if n > mapsPerCircuit {
			n = mapsPerCircuit
		}
		for k := 0; k < n; k++ {
			specs = append(specs, Spec{
				Shard:   id,
				Circuit: ci,
				Start:   k * mapsPerCircuit / n,
				End:     (k + 1) * mapsPerCircuit / n,
			})
			id++
		}
	}
	return specs
}

// FaultKind selects an injected fault for one (shard, attempt).
type FaultKind int

// Injected fault kinds, consumed by tests and chaos drills.
const (
	// FaultNone leaves the attempt alone.
	FaultNone FaultKind = iota
	// FaultPanic panics inside the attempt, exercising the
	// recover-to-error path.
	FaultPanic
	// FaultTransient fails the attempt with a transient error,
	// exercising retry/backoff.
	FaultTransient
	// FaultTruncate executes the shard but persists a partial file while
	// journaling it as done — the on-disk state a kill mid-write or a
	// torn copy leaves behind. Verification must catch it and re-run.
	FaultTruncate
	// FaultCorrupt executes the shard but flips one payload byte on disk
	// without touching the frame header — the on-disk state bit rot or a
	// corrupting transport leaves behind. The length and magic still look
	// right, so only the SHA-256 self-check can catch it.
	FaultCorrupt
)

// FaultFunc is the fault-injection hook: it is consulted once per shard
// attempt and returns the fault to inject. Nil injects nothing. Attempt
// numbering restarts at 1 when verification rejects a persisted shard and
// re-runs it, so hooks that should fire once must keep their own state.
type FaultFunc func(shard, attempt int) FaultKind

// Event reports shard-runner progress to Config.Progress.
type Event struct {
	// Kind is one of "plan", "reuse", "attempt", "retry", "done",
	// "failed", "corrupt", "merge".
	Kind    string
	Shard   int
	Attempt int
	Err     error
	// Worker names who produced a "done" shard's frame (empty when it ran
	// here).
	Worker string
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case "plan":
		return fmt.Sprintf("planned %d shards", e.Shard)
	case "merge":
		return "verifying and merging shards"
	}
	s := fmt.Sprintf("shard %d: %s", e.Shard, e.Kind)
	if e.Attempt > 0 {
		s += fmt.Sprintf(" (attempt %d)", e.Attempt)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Runner defaults.
const (
	DefaultMaxAttempts = 3
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
)

// Config drives a sharded generation job.
type Config struct {
	// Dataset is the sweep being sharded. Its Workers field bounds
	// intra-shard mapping parallelism (defaulted to 1 here: the shard
	// pool is the parallelism).
	Dataset dataset.Config
	// OutDir is the job directory holding shard files and the manifest.
	OutDir string
	// Shards is the requested shard count (see Plan for how it is
	// realised; 0 = one shard per circuit).
	Shards int
	// Workers bounds concurrently executing shards (0 = 4).
	Workers int
	// Resume allows reusing an OutDir that already holds a manifest;
	// completed shards are verified and kept, everything else re-runs.
	Resume bool
	// MaxAttempts bounds per-shard execution attempts (0 = 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (0 = 100ms / 5s); the actual delay is jittered
	// over [d/2, d].
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FailureBudget is the number of shards allowed to fail permanently
	// (after MaxAttempts each) before the job itself fails. Mappings of
	// budgeted-away shards are skipped in the merged dataset, so the
	// default of 0 is what guarantees byte-identity with Generate.
	FailureBudget int
	// Fault is the fault-injection hook (nil = none).
	Fault FaultFunc
	// Progress receives runner events (nil = silent). It may be called
	// from multiple goroutines.
	Progress func(Event)
}

// Executor runs one attempt at a shard elsewhere and returns the shard's
// frame (the bytes its file holds) and the name of whoever produced it.
// Run trusts no byte of the frame before verifying it.
type Executor func(ctx context.Context, sp Spec) (frame []byte, by string, err error)

// Report summarises a Run.
type Report struct {
	// Shards is the planned shard count; Reused counts shards accepted
	// from a previous run, Executed those run (or re-run) here.
	Shards, Reused, Executed int
	// Retries counts failed attempts that were retried; Corrupt counts
	// shard files rejected by verification and re-run.
	Retries, Corrupt int
	// FailedShards lists shards that exhausted MaxAttempts.
	FailedShards []int
	// SkippedMaps counts mappings absent from the merged dataset
	// (tolerated mapping failures plus budgeted-away shards).
	SkippedMaps int
	// Samples is the merged dataset size.
	Samples int
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.OutDir == "" {
		return cfg, fmt.Errorf("genjob: OutDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.Dataset.Workers == 0 {
		// One mapping at a time inside a shard: the shard pool supplies
		// the parallelism, and N shards × GOMAXPROCS maps would
		// oversubscribe every core.
		cfg.Dataset.Workers = 1
	}
	// Normalize up front so the plan and the config fingerprint agree with
	// every other invocation of the same sweep, resumed or not.
	dcfg, err := cfg.Dataset.Normalize()
	if err != nil {
		return cfg, fmt.Errorf("genjob: %w", err)
	}
	cfg.Dataset = dcfg
	return cfg, nil
}

func (cfg *Config) emit(e Event) {
	if cfg.Progress != nil {
		cfg.Progress(e)
	}
}

// verifyRounds bounds the execute→verify→re-run loop; a shard whose file
// never verifies (e.g. a persistently torn disk) fails the job rather
// than spinning.
const verifyRounds = 4

// Run executes (or resumes) the sharded sweep and merges the result.
// Each attempt at a shard runs through exec, or here when exec is nil.
// It returns the merged dataset — byte-identical to dataset.Generate with
// the same master seed when no shard was budgeted away — plus a report.
// On error the report still describes how far the run got; completed
// shards stay on disk, so a later Run with Resume set picks up from the
// manifest.
func Run(ctx context.Context, cfg Config, exec Executor) (*dataset.Dataset, *Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	dcfg := cfg.Dataset
	shards := cfg.Shards
	if shards <= 0 {
		shards = len(dcfg.Circuits)
	}
	specs := Plan(len(dcfg.Circuits), dcfg.MapsPerCircuit, shards)
	rep := &Report{Shards: len(specs)}
	cfg.emit(Event{Kind: "plan", Shard: len(specs)})

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, rep, err
	}
	fp := Fingerprint(dcfg)
	man, err := openManifest(cfg.OutDir, fp, len(specs), cfg.Resume)
	if err != nil {
		return nil, rep, err
	}
	defer man.close()

	// Decide what is already done: a manifest "done" entry only counts if
	// its file still verifies end to end (checksum, spec, fingerprint) and
	// matches the journaled SHA — anything else re-runs.
	valid := make([]bool, len(specs))
	pending := make([]Spec, 0, len(specs))
	for _, sp := range specs {
		e, ok := man.entry(sp.Shard)
		if ok && e.Status == "done" {
			if verr := verifyShard(cfg.OutDir, sp, fp, e); verr == nil {
				valid[sp.Shard] = true
				rep.Reused++
				cfg.emit(Event{Kind: "reuse", Shard: sp.Shard})
				continue
			} else {
				rep.Corrupt++
				cfg.emit(Event{Kind: "corrupt", Shard: sp.Shard, Err: verr})
			}
		}
		pending = append(pending, sp)
	}

	failed := make(map[int]error)
	for round := 0; len(pending) > 0; round++ {
		if round >= verifyRounds {
			return nil, rep, fmt.Errorf("genjob: %d shards still invalid after %d verify rounds", len(pending), round)
		}
		if err := runPool(ctx, &cfg, exec, man, fp, pending, rep, failed); err != nil {
			return nil, rep, err
		}
		// Re-verify everything executed this round from disk before it may
		// be merged; a shard whose persisted bytes do not verify re-runs.
		next := pending[:0]
		for _, sp := range pending {
			if _, bad := failed[sp.Shard]; bad {
				continue
			}
			e, ok := man.entry(sp.Shard)
			if !ok || e.Status != "done" {
				continue // context cut the run short before this shard
			}
			if verr := verifyShard(cfg.OutDir, sp, fp, e); verr != nil {
				rep.Corrupt++
				cfg.emit(Event{Kind: "corrupt", Shard: sp.Shard, Err: verr})
				next = append(next, sp)
				continue
			}
			valid[sp.Shard] = true
		}
		pending = next
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
	}

	for shard := range failed {
		rep.FailedShards = append(rep.FailedShards, shard)
	}
	sort.Ints(rep.FailedShards)
	if len(rep.FailedShards) > cfg.FailureBudget {
		return nil, rep, fmt.Errorf("genjob: %d shards failed permanently (budget %d), first: %w",
			len(rep.FailedShards), cfg.FailureBudget, failed[rep.FailedShards[0]])
	}

	ds, err := mergeVerified(&cfg, specs, fp, rep)
	if err != nil {
		return nil, rep, err
	}
	return ds, rep, nil
}

// errBudgetSpent ends runPool's fan-out once more shards have failed than
// the budget allows.
var errBudgetSpent = errors.New("genjob: shard failure budget spent")

// runPool executes the given shards on cfg.Workers goroutines. Once more
// shards have failed than the budget allows the run is lost, so the shards
// still queued or running are canceled.
func runPool(ctx context.Context, cfg *Config, exec Executor, man *manifest, fp string, shards []Spec, rep *Report, failed map[int]error) error {
	var (
		mu    sync.Mutex // guards rep counters, failed, fail, spent
		fail  error
		spent bool // set with errBudgetSpent, before For cancels pctx
	)
	err := par.For(ctx, len(shards), cfg.Workers, func(pctx context.Context, _, i int) error {
		sp := shards[i]
		retries, err := runShard(pctx, cfg, exec, man, fp, sp)
		mu.Lock()
		defer mu.Unlock()
		rep.Executed++
		rep.Retries += retries
		if err == nil || pctx.Err() != nil || spent {
			return nil
		}
		failed[sp.Shard] = err
		cfg.emit(Event{Kind: "failed", Shard: sp.Shard, Err: err})
		if rerr := man.record(manifestEntry{Shard: sp.Shard, Status: "failed", Attempts: cfg.MaxAttempts, Err: err.Error()}); rerr != nil && fail == nil {
			fail = rerr
		}
		if len(failed) > cfg.FailureBudget {
			spent = true
			return errBudgetSpent
		}
		return nil
	})
	if fail != nil {
		return fail
	}
	if errors.Is(err, errBudgetSpent) {
		return nil
	}
	return err
}

// runShard attempts one shard up to MaxAttempts times with jittered
// exponential backoff between attempts. An attempt's frame is verified
// before it is written, and journaled once it is. It returns the number
// of retried attempts.
func runShard(ctx context.Context, cfg *Config, exec Executor, man *manifest, fp string, sp Spec) (retries int, err error) {
	// Jitter must not perturb dataset determinism, so it gets its own
	// seed lane derived from the master seed and shard id.
	rng := rand.New(rand.NewSource(cfg.Dataset.Seed ^ (int64(sp.Shard)+1)*0x9E3779B9))
	file := shardFileName(sp.Shard)
	var lastErr error
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return retries, err
		}
		fault := FaultNone
		if cfg.Fault != nil {
			fault = cfg.Fault(sp.Shard, attempt)
		}
		cfg.emit(Event{Kind: "attempt", Shard: sp.Shard, Attempt: attempt})

		frame, by, err := attemptShard(ctx, cfg, exec, fp, sp, fault)
		var sha string
		if err == nil {
			_, sha, err = parseShardBytes(frame, cmp.Or(by, "local"), sp, fp)
		}
		if err == nil {
			err = writeShardFile(filepath.Join(cfg.OutDir, file), frame, fault)
		}
		if err == nil {
			if err := man.record(manifestEntry{Shard: sp.Shard, Status: "done", File: file, SHA: sha, Attempts: attempt}); err != nil {
				return retries, err
			}
			cfg.emit(Event{Kind: "done", Shard: sp.Shard, Attempt: attempt, Worker: by})
			return retries, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return retries, err
		}
		if attempt == cfg.MaxAttempts {
			break
		}
		retries++
		cfg.emit(Event{Kind: "retry", Shard: sp.Shard, Attempt: attempt, Err: err})
		if err := Backoff(ctx, cfg.BackoffBase, cfg.BackoffMax, attempt, rng); err != nil {
			return retries, err
		}
	}
	return retries, fmt.Errorf("genjob: shard %d failed after %d attempts: %w", sp.Shard, cfg.MaxAttempts, lastErr)
}

// attemptShard runs one attempt at a shard, through exec or here, and
// returns its frame and who produced it. Injected panic and transient
// faults fire here. A panic becomes an error, so one poisoned mapping costs
// a retry instead of the process.
func attemptShard(ctx context.Context, cfg *Config, exec Executor, fp string, sp Spec, fault FaultKind) (frame []byte, by string, err error) {
	defer func() {
		if r := recover(); r != nil {
			frame, by, err = nil, "", fmt.Errorf("genjob: shard %d panicked: %v", sp.Shard, r)
		}
	}()
	switch fault {
	case FaultPanic:
		panic("injected fault: panic")
	case FaultTransient:
		return nil, "", fmt.Errorf("genjob: injected transient fault")
	}
	if exec != nil {
		return exec(ctx, sp)
	}
	frame, _, err = shardFrame(ctx, cfg.Dataset, fp, sp)
	return frame, "", err
}

// shardFrame runs the shard's mapping range and returns its frame and the
// payload's SHA-256 hex.
func shardFrame(ctx context.Context, dcfg dataset.Config, fp string, sp Spec) ([]byte, string, error) {
	outcomes, err := dataset.GenerateOutcomes(ctx, dcfg, sp.Circuit, sp.Start, sp.End)
	if err != nil {
		return nil, "", err
	}
	return encodeShard(&shardPayload{Spec: sp, Fingerprint: fp, Outcomes: outcomes})
}

// Backoff sleeps the jittered, capped exponential delay for the given
// 1-based attempt, or returns early when ctx is done. Shard retries use
// it, and the fleet's request retries share the schedule.
func Backoff(ctx context.Context, base, max time.Duration, attempt int, rng *rand.Rand) error {
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	// Full-half jitter: uniformly in [d/2, d].
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// mergeVerified loads every shard file once more — full verification,
// straight from disk — and assembles the dataset exactly as a
// single-process Generate would. Mappings of budgeted-away shards become
// skipped outcomes; the dataset-level failure tolerance is widened by
// exactly that count, since the shard failure budget already authorised
// the loss explicitly.
func mergeVerified(cfg *Config, specs []Spec, fp string, rep *Report) (*dataset.Dataset, error) {
	cfg.emit(Event{Kind: "merge"})
	dcfg := cfg.Dataset
	failed := make(map[int]bool, len(rep.FailedShards))
	for _, s := range rep.FailedShards {
		failed[s] = true
	}
	all := make([][]dataset.MapOutcome, len(dcfg.Circuits))
	for ci := range all {
		all[ci] = make([]dataset.MapOutcome, dcfg.MapsPerCircuit)
	}
	budgeted := 0
	for _, sp := range specs {
		if failed[sp.Shard] {
			for i := sp.Start; i < sp.End; i++ {
				all[sp.Circuit][i] = dataset.MapOutcome{Skipped: true, Err: fmt.Sprintf("shard %d failed permanently", sp.Shard)}
			}
			budgeted += sp.Maps()
			continue
		}
		p, _, err := readShardFile(filepath.Join(cfg.OutDir, shardFileName(sp.Shard)), sp, fp)
		if err != nil {
			return nil, fmt.Errorf("genjob: merge rejected shard %d: %w", sp.Shard, err)
		}
		copy(all[sp.Circuit][sp.Start:sp.End], p.Outcomes)
	}
	mergeCfg := dcfg
	mergeCfg.MaxFailures += budgeted
	ds, err := dataset.Assemble(mergeCfg, all)
	if err != nil {
		return nil, err
	}
	for _, o := range all {
		for _, mo := range o {
			if mo.Skipped {
				rep.SkippedMaps++
			}
		}
	}
	rep.Samples = ds.Len()
	return ds, nil
}

// verifyShard checks a journaled-done shard end to end: the file must
// parse, self-verify, match the planned spec and config fingerprint, and
// carry exactly the payload checksum the manifest journaled.
func verifyShard(dir string, sp Spec, fp string, e manifestEntry) error {
	file := e.File
	if file == "" {
		file = shardFileName(sp.Shard)
	}
	_, sha, err := readShardFile(filepath.Join(dir, file), sp, fp)
	if err != nil {
		return err
	}
	if e.SHA != "" && e.SHA != sha {
		return fmt.Errorf("genjob: %s: checksum %s does not match manifest %s", file, sha[:12], e.SHA[:12])
	}
	return nil
}
