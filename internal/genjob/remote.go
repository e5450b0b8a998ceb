package genjob

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"slap/internal/dataset"
)

// Remote shard execution. The shard frame (header + checksummed payload)
// is deliberately location-independent: the bytes a worker produces for a
// Spec are exactly the bytes a local attempt would, so a coordinator runs
// its sweep through Run with an Executor that fetches each frame from a
// worker, and the runner verifies, persists, journals and merges it like
// any local shard — byte-identical to a single-process sweep.

// ShardRequest is the JSON body of POST /v1/shards/execute: one shard of a
// sweep, plus the sweep's fingerprint as the coordinator resolved it. The
// worker resolves the sweep itself and refuses a different fingerprint,
// so version skew fails loudly instead of merging subtly different results.
type ShardRequest struct {
	Sweep
	Spec
	Fingerprint string `json:"fingerprint"`
	// TimeoutMS bounds the execution (0 = the worker's default).
	TimeoutMS int64 `json:"timeout_ms"`
}

// Fingerprint returns the canonical sweep fingerprint of a dataset config.
// Both ends of a remote shard execution compare it before trusting a
// frame, so a coordinator and a worker that disagree about the sweep
// (version skew, different builtins) fail loudly instead of merging
// mismatched results. The config must be normalized first (Config.Normalize)
// so implicit and explicit defaults fingerprint identically.
func Fingerprint(cfg dataset.Config) string { return fingerprintConfig(cfg) }

// ExecuteShardBytes runs one shard's mapping range locally and returns the
// framed, self-verifying shard bytes plus the payload's SHA-256 hex. It is
// the worker half of remote execution: the frame is what ships back to the
// coordinator.
func ExecuteShardBytes(ctx context.Context, dcfg dataset.Config, sp Spec) ([]byte, string, error) {
	dcfg, err := dcfg.Normalize()
	if err != nil {
		return nil, "", fmt.Errorf("genjob: %w", err)
	}
	return shardFrame(ctx, dcfg, fingerprintConfig(dcfg), sp)
}

// Backoff sleeps the jittered, capped exponential delay for the given
// 1-based attempt, or returns early when ctx is done. It is the same
// schedule shard retries use, exported so the fleet's request retries
// share one failure-budget idiom.
func Backoff(ctx context.Context, base, max time.Duration, attempt int, rng *rand.Rand) error {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	return sleepBackoff(ctx, base, max, attempt, rng)
}
