package genjob

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/dataset"
	"slap/internal/library"
)

// testMaps keeps the sweep small enough for the race detector while still
// leaving several maps per shard.
const testMaps = 8

func testDatasetConfig() dataset.Config {
	return dataset.Config{
		Circuits:       []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()},
		Library:        library.ASAP7ish(),
		MapsPerCircuit: testMaps,
		Seed:           7,
	}
}

func testConfig(dir string, shards int) Config {
	return Config{
		Dataset:     testDatasetConfig(),
		OutDir:      dir,
		Shards:      shards,
		Workers:     4,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
}

// reference is the uninterrupted single-process dataset the sharded runs
// must reproduce byte for byte.
func reference(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func assertIdentical(t *testing.T, got, want *dataset.Dataset) {
	t.Helper()
	if got.Classes != want.Classes {
		t.Fatalf("classes %d, want %d", got.Classes, want.Classes)
	}
	if !reflect.DeepEqual(got.Y, want.Y) {
		t.Fatalf("labels differ from single-process run")
	}
	if !reflect.DeepEqual(got.X, want.X) {
		t.Fatalf("embeddings differ from single-process run")
	}
}

func TestPlanCoversEveryMapExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ circuits, maps, shards int }{
		{1, 10, 1}, {1, 10, 3}, {2, 8, 5}, {2, 8, 1}, {3, 5, 100}, {2, 7, 7},
	} {
		specs := Plan(tc.circuits, tc.maps, tc.shards)
		covered := make([][]int, tc.circuits)
		for ci := range covered {
			covered[ci] = make([]int, tc.maps)
		}
		for i, sp := range specs {
			if sp.Shard != i {
				t.Fatalf("%+v: shard ids not sequential: %d at %d", tc, sp.Shard, i)
			}
			if sp.Maps() <= 0 {
				t.Fatalf("%+v: empty shard %+v", tc, sp)
			}
			for m := sp.Start; m < sp.End; m++ {
				covered[sp.Circuit][m]++
			}
		}
		for ci, c := range covered {
			for m, n := range c {
				if n != 1 {
					t.Fatalf("%+v: circuit %d map %d covered %d times", tc, ci, m, n)
				}
			}
		}
	}
	if got := Plan(0, 5, 3); got != nil {
		t.Fatalf("plan with no circuits: %v", got)
	}
}

func TestRunMatchesSingleProcessGenerate(t *testing.T) {
	cfg := testConfig(t.TempDir(), 5)
	ds, rep, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != rep.Executed || rep.Reused != 0 {
		t.Fatalf("fresh run: %+v", rep)
	}
	if rep.SkippedMaps != 0 || len(rep.FailedShards) != 0 {
		t.Fatalf("clean run reported losses: %+v", rep)
	}
	assertIdentical(t, ds, reference(t))

	// A second run over the same directory reuses every shard.
	cfg.Resume = true
	ds2, rep2, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reused != rep.Shards || rep2.Executed != 0 {
		t.Fatalf("full resume should execute nothing: %+v", rep2)
	}
	assertIdentical(t, ds2, ds)
}

// TestFaultInjectionPanicAndTransient injects a panic into one shard and a
// transient error into another; both must retry and the merged dataset
// must still be byte-identical.
func TestFaultInjectionPanicAndTransient(t *testing.T) {
	var mu sync.Mutex
	fired := map[int]bool{}
	cfg := testConfig(t.TempDir(), 6)
	cfg.Fault = func(shard, attempt int) FaultKind {
		mu.Lock()
		defer mu.Unlock()
		if fired[shard] {
			return FaultNone
		}
		fired[shard] = true
		switch shard {
		case 1:
			return FaultPanic
		case 3:
			return FaultTransient
		}
		return FaultNone
	}
	ds, rep, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries < 2 {
		t.Fatalf("expected at least 2 retries, got %+v", rep)
	}
	if len(rep.FailedShards) != 0 {
		t.Fatalf("recovered faults must not fail shards: %+v", rep)
	}
	assertIdentical(t, ds, reference(t))
}

// TestCrashResumeDeterminism kills a sharded run mid-sweep (context cancel
// after the first shards persist — the in-process equivalent of SIGKILL,
// plus a torn manifest line) and resumes: the merged dataset must be
// byte-identical to an uninterrupted single-process run.
func TestCrashResumeDeterminism(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir, 6)
	cfg.Workers = 1 // sequential, so the cancel point is predictable

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	done := 0
	cfg.Progress = func(e Event) {
		if e.Kind != "done" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if done++; done == 2 {
			cancel()
		}
	}
	if _, _, err := Run(ctx, cfg, nil); err == nil {
		t.Fatal("killed run reported success")
	}

	// A SIGKILL can also tear the last manifest append mid-line; the
	// journal replay must shrug it off.
	mf := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(mf, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"shard":5,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.Progress = nil
	cfg.Resume = true
	ds, rep, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reused < 2 {
		t.Fatalf("resume reused %d shards, want >= 2", rep.Reused)
	}
	if rep.Reused+rep.Executed < rep.Shards {
		t.Fatalf("resume left shards unaccounted: %+v", rep)
	}
	assertIdentical(t, ds, reference(t))
}

// TestFlippedByteDetected corrupts one persisted shard by a single byte:
// a resumed Run must reject it on its checksum, re-run the shard, and
// still produce the exact dataset; a further resume then reuses every
// shard.
func TestFlippedByteDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir, 5)
	ds, _, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, shardFileName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	var rejected []error
	cfg.Progress = func(e Event) {
		if e.Kind == "corrupt" {
			rejected = append(rejected, e.Err)
		}
	}
	ds2, rep, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || len(rejected) != 1 || !strings.Contains(rejected[0].Error(), "checksum") {
		t.Fatalf("tampered shard not rejected on its checksum: %+v, %v", rep, rejected)
	}
	if rep.Executed != 1 {
		t.Fatalf("corrupt shard not re-run alone: %+v", rep)
	}
	assertIdentical(t, ds2, ds)

	// After the repair, every shard verifies clean again.
	cfg.Progress = nil
	if _, rep, err := Run(context.Background(), cfg, nil); err != nil || rep.Reused != rep.Shards {
		t.Fatalf("resume after repair: %+v, %v", rep, err)
	}
}

// TestTruncatedWriteDetected injects a partial shard-file write that is
// journaled as done — the state a kill mid-write leaves — and checks the
// verify pass catches it and re-runs the shard.
func TestTruncatedWriteDetected(t *testing.T) {
	var mu sync.Mutex
	fired := false
	cfg := testConfig(t.TempDir(), 4)
	cfg.Fault = func(shard, attempt int) FaultKind {
		mu.Lock()
		defer mu.Unlock()
		if shard == 0 && !fired {
			fired = true
			return FaultTruncate
		}
		return FaultNone
	}
	ds, rep, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == 0 {
		t.Fatalf("truncated shard was merged silently: %+v", rep)
	}
	assertIdentical(t, ds, reference(t))
}

// TestCorruptByteDetected injects a single flipped payload byte under an
// intact frame header — length and magic still look right — and checks
// the SHA-256 self-check catches it and the re-run converges on the
// reference dataset anyway.
func TestCorruptByteDetected(t *testing.T) {
	var mu sync.Mutex
	fired := false
	cfg := testConfig(t.TempDir(), 4)
	cfg.Fault = func(shard, attempt int) FaultKind {
		mu.Lock()
		defer mu.Unlock()
		if shard == 1 && !fired {
			fired = true
			return FaultCorrupt
		}
		return FaultNone
	}
	ds, rep, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == 0 {
		t.Fatalf("corrupt-byte shard was merged silently: %+v", rep)
	}
	assertIdentical(t, ds, reference(t))
}

// TestFailureBudget exhausts one shard's attempts: budget 0 fails the job,
// budget 1 degrades to a dataset missing exactly that shard's mappings.
func TestFailureBudget(t *testing.T) {
	mk := func(budget int) Config {
		cfg := testConfig(t.TempDir(), 4)
		cfg.MaxAttempts = 2
		cfg.FailureBudget = budget
		cfg.Fault = func(shard, attempt int) FaultKind {
			if shard == 1 {
				return FaultTransient
			}
			return FaultNone
		}
		return cfg
	}

	if _, rep, err := Run(context.Background(), mk(0), nil); err == nil {
		t.Fatal("exhausted shard within budget 0 must fail the job")
	} else if len(rep.FailedShards) != 1 || rep.FailedShards[0] != 1 {
		t.Fatalf("failed shards: %+v", rep)
	}

	ds, rep, err := Run(context.Background(), mk(1), nil)
	if err != nil {
		t.Fatalf("budget 1 should tolerate one failed shard: %v", err)
	}
	specs := Plan(2, testMaps, 4)
	if rep.SkippedMaps != specs[1].Maps() {
		t.Fatalf("skipped %d maps, want %d", rep.SkippedMaps, specs[1].Maps())
	}
	if ds.Len() == 0 || ds.Len() >= reference(t).Len() {
		t.Fatalf("degraded dataset size %d out of range", ds.Len())
	}

	// Past the budget the run is lost, so the shards still queued are
	// canceled instead of run: one at a time, shards 2 and 3 never start.
	seq := mk(0)
	seq.Workers = 1
	if _, rep, err := Run(context.Background(), seq, nil); err == nil || rep.Executed != 2 {
		t.Fatalf("over-budget run executed %d shards (err %v), want 2", rep.Executed, err)
	}
}

// TestRunVerifiesExecutorFrames runs the sweep through an Executor whose
// first frame for each shard has a flipped payload byte. The runner must
// reject each such frame before writing it, retry, and credit every shard
// to the worker that produced its good frame.
func TestRunVerifiesExecutorFrames(t *testing.T) {
	cfg := testConfig(t.TempDir(), 4)
	var mu sync.Mutex
	tried := map[int]bool{}
	credited := map[string]int{}
	cfg.Progress = func(e Event) {
		if e.Kind == "done" {
			mu.Lock()
			credited[e.Worker]++
			mu.Unlock()
		}
	}
	exec := func(ctx context.Context, sp Spec) ([]byte, string, error) {
		frame, _, err := ExecuteShardBytes(ctx, testDatasetConfig(), sp)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || tried[sp.Shard] {
			return frame, "steady", err
		}
		tried[sp.Shard] = true
		frame[len(frame)-1] ^= 0x40
		return frame, "flaky", nil
	}
	ds, rep, err := Run(context.Background(), cfg, exec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != rep.Shards || rep.Corrupt != 0 {
		t.Fatalf("bad frames must cost one retry each and never reach disk: %+v", rep)
	}
	if credited["steady"] != rep.Shards || len(credited) != 1 {
		t.Fatalf("shards credited %v, want all %d to steady", credited, rep.Shards)
	}
	assertIdentical(t, ds, reference(t))
}

func TestResumeSafety(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir, 3)
	if _, _, err := Run(context.Background(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	// Same directory without Resume: refuse, two runs must not interleave.
	if _, _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("second run without Resume accepted")
	}
	// Resume with a different sweep config: fingerprint mismatch.
	other := cfg
	other.Resume = true
	other.Dataset.Seed = 99
	if _, _, err := Run(context.Background(), other, nil); err == nil {
		t.Fatal("resume with different seed accepted")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("unexpected error: %v", err)
	}
}
