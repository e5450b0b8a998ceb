package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slap/internal/aig"
	"slap/internal/genjob"
)

// Coordinator defaults.
const (
	DefaultProbeInterval     = 2 * time.Second
	DefaultProbeTimeout      = 1 * time.Second
	DefaultDeadAfter         = 3
	DefaultMaxAttempts       = 3
	DefaultBackoffBase       = 25 * time.Millisecond
	DefaultBackoffMax        = 500 * time.Millisecond
	DefaultInflightPerWorker = 32
	DefaultMaxBodyBytes      = 8 << 20
)

// StaticWorker names a worker configured at coordinator startup (as
// opposed to one that self-registered with -advertise).
type StaticWorker struct {
	Name string
	URL  string
}

// Config configures a fleet coordinator.
type Config struct {
	// Workers are the statically configured fleet members; more may join
	// at runtime via POST /v1/workers/register.
	Workers []StaticWorker
	// VNodes is the virtual-node count per worker (0 = DefaultVNodes).
	VNodes int
	// ProbeInterval is the /healthz polling cadence (0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (0 = 1s).
	ProbeTimeout time.Duration
	// DeadAfter is how many consecutive probe/proxy failures declare a
	// worker dead (0 = 3).
	DeadAfter int
	// MaxAttempts bounds how many workers one request may be tried on
	// before answering 502 (0 = 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the jittered exponential delay
	// between retry attempts — the same schedule genjob shard retries use
	// (0 = 25ms / 500ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// InflightPerWorker caps concurrently proxied requests per worker;
	// when every live worker is at its cap the request is shed with 503
	// (0 = DefaultInflightPerWorker, negative = uncapped).
	InflightPerWorker int64
	// MaxBodyBytes bounds proxied request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds one proxied request end-to-end — every retry,
	// backoff and hedge included (0 = unbounded). A client ?timeout_ms
	// tightens it further but never extends it.
	RequestTimeout time.Duration
	// BreakerThreshold is how many consecutive request failures trip a
	// worker's circuit breaker open; BreakerCooldown is how long an open
	// breaker waits before admitting a half-open trial (0 = 3 / 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// JournalPath, when set, makes the control plane crash-safe: fleet
	// membership and dataset-job lifecycle append to this checksummed JSONL
	// journal before taking effect, and a restarted coordinator replays it —
	// re-adopting workers and resuming unfinished jobs where their shard
	// manifests left off.
	JournalPath string
	// JobsDir is where fleet dataset jobs persist fetched shard files and
	// manifests (empty = "slap-fleet-jobs" under os.TempDir).
	JobsDir string
	// ShardConcurrency bounds concurrently outstanding shard executions
	// per dataset job (0 = 2 × worker count at submission).
	ShardConcurrency int
	// Client performs outbound HTTP (nil = a default client; probes apply
	// ProbeTimeout per request).
	Client *http.Client
}

// Coordinator fronts a fleet of slap-serve workers: hash-affinity routing
// for /v1/map and /v1/classify, health probing, retry/shed, and dataset
// fan-out. Build with New, serve Handler, stop with Close.
type Coordinator struct {
	cfg     Config
	metrics *fleetMetrics
	client  *http.Client
	mux     *http.ServeMux
	journal *journal // nil when Config.JournalPath is empty
	start   time.Time

	mu      sync.Mutex
	workers map[string]*worker
	ring    *Ring

	jobs    sync.Map // job id -> *genjob.Job
	jobsSeq atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// New assembles a Coordinator and starts its probe loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = DefaultDeadAfter
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
	if cfg.InflightPerWorker == 0 {
		cfg.InflightPerWorker = DefaultInflightPerWorker
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.JobsDir == "" {
		cfg.JobsDir = filepath.Join(os.TempDir(), "slap-fleet-jobs")
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		start:   time.Now(),
		workers: make(map[string]*worker),
		stop:    make(chan struct{}),
	}
	c.metrics = newMetrics(c)
	if c.client == nil {
		c.client = &http.Client{}
	}
	var replayed *replayState
	if cfg.JournalPath != "" {
		j, st, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal, replayed = j, st
	}
	// Static workers are flag-owned — they come back from the command line
	// on every start and are not journaled.
	for _, sw := range cfg.Workers {
		if _, err := c.addWorker(sw.Name, sw.URL, true, false); err != nil {
			return nil, err
		}
	}
	if replayed != nil {
		c.metrics.journalReplays.Add(float64(replayed.applied))
		// Re-adopt journaled members (name collisions keep the static
		// record); probes refresh their health within one interval.
		names := make([]string, 0, len(replayed.workers))
		for n := range replayed.workers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rec := replayed.workers[n]
			if _, err := c.addWorker(rec.Name, rec.URL, rec.Static, false); err != nil {
				return nil, fmt.Errorf("replaying journal %s: %w", cfg.JournalPath, err)
			}
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", func(w http.ResponseWriter, r *http.Request) { c.routeProxy(w, r) })
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) { c.routeProxy(w, r) })
	mux.HandleFunc("POST /v1/workers/register", c.handleRegister)
	mux.HandleFunc("DELETE /v1/workers/{name}", c.handleDeregister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/jobs/dataset", c.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobStatus)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.Handle("GET /metrics", c.metrics)
	c.mux = mux

	c.wg.Add(1)
	go c.probeLoop()
	if replayed != nil {
		c.resumeJobs(replayed)
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler tree.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the probe loop, cancels running fleet jobs and closes the
// journal. Close is what a crash looks like to the journal: a job caught
// mid-flight keeps its submit record and resumes on the next start.
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
	c.jobs.Range(func(_, v any) bool {
		v.(*genjob.Job).Cancel()
		return true
	})
	c.journal.close()
}

// addWorker inserts or refreshes a worker record. Returns whether the
// membership changed (triggering a ring rebuild). record=false during
// startup (static flags, journal replay) keeps the journal from
// re-absorbing its own records.
func (c *Coordinator) addWorker(name, rawURL string, static, record bool) (changed bool, err error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return false, fmt.Errorf("fleet: invalid worker URL %q (want http://host:port)", rawURL)
	}
	if name == "" {
		name = u.Host
	}
	clean := strings.TrimRight(u.String(), "/")
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[name]; ok {
		// Heartbeat refresh: same name re-registering updates its URL and
		// proves liveness. Only a URL change is worth a journal record —
		// heartbeats must not grow the journal.
		if record && w.url != clean {
			c.journal.append(journalRecord{Op: opWorkerAdd, Name: name, URL: clean, Static: w.static})
		}
		w.url = clean
		w.registered = time.Now()
		c.clearLocked(w)
		return false, nil
	}
	if record {
		c.journal.append(journalRecord{Op: opWorkerAdd, Name: name, URL: clean, Static: static})
	}
	c.workers[name] = &worker{
		name:       name,
		url:        clean,
		static:     static,
		state:      StateUp,
		registered: time.Now(),
		brk:        newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, c.metrics.breakerOpens.Inc),
	}
	c.rebuildRingLocked()
	return true, nil
}

// removeWorker drops a worker by name (registered or static) and rebuilds
// the ring. Reports whether it existed.
func (c *Coordinator) removeWorker(name string, record bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[name]; !ok {
		return false
	}
	if record {
		c.journal.append(journalRecord{Op: opWorkerRemove, Name: name})
	}
	delete(c.workers, name)
	c.rebuildRingLocked()
	return true
}

func (c *Coordinator) rebuildRingLocked() {
	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	c.ring = NewRing(names, c.cfg.VNodes)
}

// lookup returns the full failover order for key plus the worker records,
// skipping nothing — liveness is the routing loop's concern.
func (c *Coordinator) lookup(key uint64) []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		return nil
	}
	names := c.ring.Lookup(key, 0)
	out := make([]*worker, 0, len(names))
	for _, n := range names {
		if w, ok := c.workers[n]; ok {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) stateOf(w *worker) WorkerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.state
}

// acquireSlot reserves one in-flight slot on w, failing when the cap is
// reached.
func (c *Coordinator) acquireSlot(w *worker) bool {
	cap := c.cfg.InflightPerWorker
	if cap < 0 {
		w.inflight.Add(1)
		return true
	}
	for {
		cur := w.inflight.Load()
		if cur >= cap {
			return false
		}
		if w.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (c *Coordinator) releaseSlot(w *worker) { w.inflight.Add(-1) }

// ---------------------------------------------------------------------------
// Request routing

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// routeKey decodes the circuit out of a /v1/map | /v1/classify body and
// returns its structural hash — the affinity key. The body is either a
// JSON envelope with a "circuit" field or the raw circuit text (format in
// the query), mirroring the worker's own request parsing.
func routeKey(body []byte, contentType string, q url.Values) (uint64, error) {
	circuit, format := string(body), q.Get("format")
	if ct, _, _ := mime.ParseMediaType(contentType); ct == "application/json" {
		var env struct {
			Circuit string `json:"circuit"`
			Format  string `json:"format"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return 0, fmt.Errorf("decoding JSON request: %w", err)
		}
		circuit, format = env.Circuit, env.Format
	}
	if strings.TrimSpace(circuit) == "" {
		return 0, errors.New("empty circuit: send AIGER/BLIF text as the body, or a JSON envelope with a \"circuit\" field")
	}
	g, err := aig.Decode(format, strings.NewReader(circuit))
	if err != nil {
		return 0, err
	}
	return g.StructuralHash(), nil
}

// clientTimeout resolves one proxied request's time budget: the client's
// ?timeout_ms clamped by the coordinator's RequestTimeout. Zero means
// unbounded (beyond the client's own connection lifetime).
func clientTimeout(q url.Values, def time.Duration) time.Duration {
	t := def
	if ms := q.Get("timeout_ms"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			if d := time.Duration(v) * time.Millisecond; t <= 0 || d < t {
				t = d
			}
		}
	}
	return t
}

// pickResult is one candidate-scan outcome.
type pickResult struct {
	wk    *worker
	probe bool // the pick holds its worker's half-open breaker trial slot
	// saturated: some breaker-admitting live candidate was skipped at its
	// in-flight cap. affineCut names why the ring-affine worker (order[0])
	// was passed over — "saturated" or "breaker" — which is exactly the
	// hedge trigger; a dead affine worker is plain failover, not a hedge.
	saturated bool
	affineCut string
}

// pickWorker scans order for the next routable candidate starting at
// *start — skipping dead workers and open breakers, acquiring an
// in-flight slot — wrapping so a lone worker still gets every attempt.
// exclude (may be nil) is never picked, which keeps a hedge off the arm
// it is racing. On success *start advances past the pick.
func (c *Coordinator) pickWorker(order []*worker, start *int, exclude *worker) pickResult {
	var res pickResult
	for scanned := 0; scanned < len(order); scanned++ {
		pos := (*start + scanned) % len(order)
		cand := order[pos]
		if cand == exclude {
			continue
		}
		reason := ""
		if c.stateOf(cand) == StateDead {
			reason = "dead"
		} else if ok, probe := cand.brk.Allow(); !ok {
			reason = "breaker"
		} else if !c.acquireSlot(cand) {
			cand.brk.Cancel(probe)
			reason = "saturated"
			res.saturated = true
		} else {
			res.wk, res.probe = cand, probe
			*start += scanned + 1
			return res
		}
		if pos == 0 && res.affineCut == "" && reason != "dead" {
			res.affineCut = reason
		}
	}
	return res
}

// routeProxy is the data path: hash the design, walk its ring replicas in
// preference order, forward, and retry dead or failing workers on the next
// replica — all under the client's deadline. A request displaced from its
// affine worker by saturation or an open breaker is hedged across two
// replicas. Saturation of the whole fleet sheds with 503.
func (c *Coordinator) routeProxy(w http.ResponseWriter, r *http.Request) {
	// The body is buffered (and capped) exactly once; every retry and every
	// hedge arm replays these bytes, so a request body that errors midway
	// can never reach a worker half-sent.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", c.cfg.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	key, err := routeKey(body, r.Header.Get("Content-Type"), r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	order := c.lookup(key)
	if len(order) == 0 {
		writeError(w, http.StatusServiceUnavailable, errors.New("fleet has no workers"))
		c.metrics.shed.Inc()
		return
	}

	// Deadline propagation: the whole attempt/backoff/hedge walk — not each
	// attempt — lives under one context, so replica walks can never exceed
	// the caller's budget. r.Context() folds in client disconnects.
	ctx := r.Context()
	if t := clientTimeout(r.URL.Query(), c.cfg.RequestTimeout); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}

	// Jitter seed derived from the affinity key: deterministic per design,
	// uncorrelated across designs.
	rng := rand.New(rand.NewSource(int64(key) ^ 0x5bf03635))
	var lastErr error
	idx := 0
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			break
		}
		pick := c.pickWorker(order, &idx, nil)
		if pick.wk == nil {
			if pick.saturated {
				c.metrics.shed.Inc()
				writeError(w, http.StatusServiceUnavailable, errors.New("fleet saturated: every live worker is at its in-flight cap"))
				return
			}
			if lastErr == nil {
				lastErr = errors.New("no live workers")
			}
			break
		}

		// Hedged read: the affine worker was passed over while merely busy
		// (saturated or breaker-open), so its replica's cache is cold for
		// this design — race the next replica and take whichever answers
		// first. Only on the first attempt; retries are already failover.
		picks := []pickResult{pick}
		if attempt == 1 && pick.affineCut != "" {
			hedgeIdx := idx
			if hedge := c.pickWorker(order, &hedgeIdx, pick.wk); hedge.wk != nil {
				picks = append(picks, hedge)
			}
		}
		winner, err := c.race(ctx, r, body, picks)
		if winner != nil {
			// Success (including worker-side 4xx, which is the client's
			// problem, not the fleet's): relay verbatim.
			c.metrics.routed.With(winner.pick.wk.name).Inc()
			c.relay(w, winner.resp)
			c.settleArm(winner)
			return
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller is done: nothing to retry for
		}
		c.metrics.retries.Inc()
		genjob.Backoff(ctx, c.cfg.BackoffBase, c.cfg.BackoffMax, attempt, rng)
	}
	status := http.StatusBadGateway
	if ctx.Err() != nil {
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, fmt.Errorf("fleet: request failed after %d attempt(s): %w", c.cfg.MaxAttempts, lastErr))
}

// forward replays the buffered request against one worker under ctx.
func (c *Coordinator) forward(ctx context.Context, r *http.Request, wk *worker, body []byte) (*http.Response, error) {
	u := wk.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return c.client.Do(req)
}

// relay streams a worker response back to the client, preserving status
// and the headers that matter.
func (c *Coordinator) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Slap-Worker", shardSHAHeaderName} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// ---------------------------------------------------------------------------
// Control-plane handlers

// RegisterRequest is the JSON body of POST /v1/workers/register — the
// worker half lives in slap-serve's -advertise/-coordinator flags.
// Repeated registration with the same name is a heartbeat.
type RegisterRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<14)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"url\""))
		return
	}
	changed, err := c.addWorker(req.Name, req.URL, false, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	n := len(c.workers)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"registered": true,
		"joined":     changed,
		"workers":    n,
	})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !c.removeWorker(name, true) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	sts := c.workerStatuses()
	sort.Slice(sts, func(i, j int) bool { return sts[i].Name < sts[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"workers": sts})
}

// handleHealthz reports fleet health with the same ok/degraded convention
// workers use: degraded is not down — routing continues on the live subset
// — but operators see every reason listed.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sts := c.workerStatuses()
	sort.Slice(sts, func(i, j int) bool { return sts[i].Name < sts[j].Name })
	var reasons []string
	live := 0
	for _, s := range sts {
		switch s.State {
		case "dead":
			reasons = append(reasons, fmt.Sprintf("worker %s is dead (%d consecutive failures, last: %s)", s.Name, s.ConsecFails, s.LastErr))
		case "degraded":
			reasons = append(reasons, fmt.Sprintf("worker %s reports degraded", s.Name))
			live++
		default:
			live++
		}
	}
	if len(sts) == 0 {
		reasons = append(reasons, "no workers registered")
	} else if live == 0 {
		reasons = append(reasons, "no live workers: every request will shed")
	}
	status := "ok"
	if len(reasons) > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"degraded": reasons,
		"workers":  sts,
		"uptime_s": time.Since(c.start).Seconds(),
	})
}
