package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"slap/internal/genjob"
)

// Remote shard execution: a fleet coordinator runs a dataset sweep through
// genjob.Run and ships each attempt at a shard here. The worker executes
// the mapping range locally and answers with the framed, checksummed shard
// bytes — exactly what a local attempt would produce — so the coordinator's
// runner verifies, journals and merges them like any local shard,
// byte-identical to a single-process sweep.

// shardSHAHeader carries the payload SHA-256 of a returned shard frame, so
// callers can cross-check the frame they received against what the worker
// computed before even parsing it.
const shardSHAHeader = "X-Slap-Shard-SHA256"

func (s *Server) handleShardExecute(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	var req genjob.ShardRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	dcfg, err := s.resolveSweep(req.Sweep)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if fp := genjob.Fingerprint(dcfg); req.Fingerprint != "" && req.Fingerprint != fp {
		writeError(w, http.StatusConflict,
			fmt.Errorf("sweep fingerprint mismatch: coordinator %s, worker %s (version skew?)", short(req.Fingerprint), short(fp)))
		return
	}
	sp := req.Spec
	if sp.Circuit < 0 || sp.Circuit >= len(dcfg.Circuits) || sp.Start < 0 || sp.End > req.MapsPerCircuit || sp.Start >= sp.End {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid shard spec %+v", sp))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()

	// Shard execution borrows one worker token: remote sweeps compete with
	// interactive mappings under the same budget, exactly like local jobs.
	_, release, err := s.sched.Acquire(ctx, 1)
	if err != nil {
		writeError(w, schedStatus(err), err)
		return
	}
	defer release()
	if s.faultHook != nil {
		s.faultHook("/v1/shards/execute")
	}

	framed, sha, err := genjob.ExecuteShardBytes(ctx, dcfg, sp)
	if err != nil {
		writeError(w, schedStatus(err), err)
		return
	}
	s.stampWorker(w)
	w.Header().Set(shardSHAHeader, sha)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(framed)))
	w.Write(framed)
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
