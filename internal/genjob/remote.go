package genjob

import (
	"context"
	"fmt"

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

// ExecuteShardBytes runs one shard's mapping range locally and returns the
// framed, self-verifying shard bytes plus the payload's SHA-256 hex. It is
// the worker half of remote execution: the frame is what ships back to the
// coordinator.
func ExecuteShardBytes(ctx context.Context, dcfg dataset.Config, sp Spec) ([]byte, string, error) {
	dcfg, err := dcfg.Normalize()
	if err != nil {
		return nil, "", fmt.Errorf("genjob: %w", err)
	}
	return shardFrame(ctx, dcfg, Fingerprint(dcfg), sp)
}
