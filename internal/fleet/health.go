package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"slap/internal/par"
)

// WorkerState is the coordinator's view of one worker's health.
type WorkerState int

// The worker health state machine:
//
//	up ──(probe sees "degraded")──▶ degraded ──(probe sees "ok")──▶ up
//	up/degraded ──(DeadAfter consecutive probe or proxy failures)──▶ dead
//	dead ──(any successful probe or proxied request)──▶ up/degraded
//
// Degraded workers keep receiving traffic (the worker itself is still
// answering 200, matching /healthz's degraded-is-not-down convention);
// dead workers are skipped by routing until they prove themselves again.
const (
	StateUp WorkerState = iota
	StateDegraded
	StateDead
)

// String names the state for metrics labels and health reports.
func (s WorkerState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDegraded:
		return "degraded"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// worker is one fleet member's routing record: identity, liveness and the
// warmth its last probe reported.
type worker struct {
	name   string
	url    string
	static bool // configured at startup; self-registered otherwise

	// inflight is the worker's current proxied-request count, capped by
	// Config.InflightPerWorker. Atomic: bumped on the request path without
	// taking the coordinator lock.
	inflight atomic.Int64

	// brk is the worker's circuit breaker: request-path failures trip it,
	// a successful request or /healthz probe closes it. Self-locking,
	// touched without the coordinator lock.
	brk *breaker

	// Guarded by the coordinator's mu.
	state       WorkerState
	consecFails int
	lastErr     string
	lastProbe   time.Time
	registered  time.Time
	// Warmth, from the worker's /healthz: how many mapped results (and
	// ECO snapshots) are cached, and how many built choice views are
	// resident. Routing-quality observability, exported per worker.
	cacheEntries   int
	cacheSnapshots int
	warmViews      int
}

// WorkerStatus is the JSON view of one worker in coordinator health
// reports.
type WorkerStatus struct {
	Name           string  `json:"name"`
	URL            string  `json:"url"`
	State          string  `json:"state"`
	Breaker        string  `json:"breaker"`
	Static         bool    `json:"static,omitempty"`
	ConsecFails    int     `json:"consec_fails,omitempty"`
	LastErr        string  `json:"last_err,omitempty"`
	LastProbeAgoS  float64 `json:"last_probe_ago_s,omitempty"`
	Inflight       int64   `json:"inflight"`
	CacheEntries   int     `json:"cache_entries"`
	CacheSnapshots int     `json:"cache_snapshots,omitempty"`
	WarmViews      int     `json:"warm_views"`
}

// workerHealthz is the slice of a worker's /healthz body the coordinator
// consumes: overall status plus cache warmth.
type workerHealthz struct {
	Status            string `json:"status"`
	MapcacheEntries   int    `json:"mapcache_entries"`
	MapcacheSnapshots int    `json:"mapcache_snapshots"`
	ChoiceViews       int    `json:"choice_views"`
}

// probeLoop polls every worker's /healthz on a fixed cadence until the
// coordinator closes.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes every known worker once, concurrently.
func (c *Coordinator) probeAll() {
	c.mu.Lock()
	targets := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		targets = append(targets, w)
	}
	c.mu.Unlock()
	// One goroutine per target, so a hung probe delays no other. A probe
	// records its own failure, so For returns nil.
	_ = par.For(context.Background(), len(targets), len(targets), func(_ context.Context, _, i int) error {
		c.probe(targets[i])
		return nil
	})
}

// probe performs one /healthz round trip and feeds the state machine.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		c.recordProbe(w, nil, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.recordProbe(w, nil, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.recordProbe(w, nil, fmt.Errorf("healthz answered %d", resp.StatusCode))
		return
	}
	var h workerHealthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		c.recordProbe(w, nil, fmt.Errorf("decoding healthz: %w", err))
		return
	}
	c.recordProbe(w, &h, nil)
}

// recordProbe applies one probe outcome to the worker's state machine,
// including the breaker's probe-driven close path (a successful probe
// stands in for the half-open trial once the cooldown elapses).
func (c *Coordinator) recordProbe(w *worker, h *workerHealthz, err error) {
	if err == nil {
		w.brk.ProbeSuccess()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w.lastProbe = time.Now()
	if err != nil {
		c.strikeLocked(w, err)
		return
	}
	c.clearLocked(w)
	if h.Status == "degraded" {
		w.state = StateDegraded
	} else {
		w.state = StateUp
	}
	w.cacheEntries = h.MapcacheEntries
	w.cacheSnapshots = h.MapcacheSnapshots
	w.warmViews = h.ChoiceViews
}

// strikeLocked counts one failed probe or proxied request against w:
// transport errors reveal a dead worker faster than the probe cadence.
// DeadAfter consecutive strikes declare it dead. c.mu is held.
func (c *Coordinator) strikeLocked(w *worker, err error) {
	w.consecFails++
	w.lastErr = err.Error()
	if w.consecFails >= c.cfg.DeadAfter && w.state != StateDead {
		w.state = StateDead
		c.metrics.deaths.Inc()
	}
}

// clearLocked records that w answered a probe, a proxied request or a
// heartbeat: it is alive no matter what an earlier probe concluded, so its
// strikes and last error clear. A dead worker revived this way reports up
// until the next probe refines it. c.mu is held.
func (c *Coordinator) clearLocked(w *worker) {
	w.consecFails = 0
	w.lastErr = ""
	if w.state == StateDead {
		w.state = StateUp
	}
}

// workerStates snapshots per-state worker counts for metrics.
func (c *Coordinator) workerStates() map[WorkerState]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[WorkerState]int, 3)
	for _, w := range c.workers {
		out[w.state]++
	}
	return out
}

// workerStatuses snapshots every worker for the health report, sorted by
// name at the caller.
func (c *Coordinator) workerStatuses() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		ws := WorkerStatus{
			Name:           w.name,
			URL:            w.url,
			State:          w.state.String(),
			Breaker:        w.brk.State().String(),
			Static:         w.static,
			ConsecFails:    w.consecFails,
			LastErr:        w.lastErr,
			Inflight:       w.inflight.Load(),
			CacheEntries:   w.cacheEntries,
			CacheSnapshots: w.cacheSnapshots,
			WarmViews:      w.warmViews,
		}
		if !w.lastProbe.IsZero() {
			ws.LastProbeAgoS = time.Since(w.lastProbe).Seconds()
		}
		out = append(out, ws)
	}
	return out
}
