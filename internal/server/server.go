package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapcache"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// Config configures a mapping server.
type Config struct {
	// Registry supplies models and libraries; nil creates a fresh registry
	// holding only the built-in asap7ish library.
	Registry *Registry
	// WorkerBudget is the global worker-token budget (0 = GOMAXPROCS).
	WorkerBudget int
	// QueueCap bounds the scheduler wait queue (0 = DefaultQueueCap).
	QueueCap int
	// MaxBodyBytes bounds request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// DefaultTimeout applies to requests that set no timeout_ms
	// (0 = DefaultRequestTimeout).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (0 = DefaultMaxTimeout).
	MaxTimeout time.Duration
	// JobsDir is where dataset-generation jobs persist their shard files
	// and manifests (0 = a "slap-jobs" directory under os.TempDir).
	JobsDir string
	// JobRetention is how long a finished dataset job (and its on-disk
	// shard directory) outlives completion before being garbage-collected
	// (0 = DefaultJobRetention, negative = keep forever).
	JobRetention time.Duration
	// MaxBatch is the largest batched inference forward pass: slap
	// mappings and classifications classify each node's cuts in passes of
	// at most this many samples through one engine per model
	// (0 = infer.DefaultMaxBatch, negative = disable batching and run the
	// per-sample path).
	MaxBatch int
	// ArenaCache is how many cut arenas the server caches across mapping
	// requests, keyed by graph identity, so repeated mappings of the same
	// design reuse cut storage instead of reallocating it
	// (0 = cuts.DefaultPoolArenas, negative = no caching).
	ArenaCache int
	// ResultCacheBytes is the byte budget of the content-addressed mapping
	// result cache: asic mappings are keyed by graph structure + names +
	// options, so exact resubmissions are answered in O(1) and concurrent
	// identical submissions collapse into one mapping (0 = disabled,
	// negative = mapcache.DefaultBudget).
	ResultCacheBytes int64
	// ECO, with a result cache enabled, serves cache misses by
	// delta-remapping against the nearest cached relative (by cone-hash
	// overlap) instead of a cold full map, re-processing only the dirty
	// cone while producing a byte-identical netlist.
	ECO bool
	// WorkerName identifies this node in a fleet: it is stamped on every
	// /v1/map and /v1/classify response (and the X-Slap-Worker header), so
	// clients and the coordinator can observe hash-affinity end to end.
	// Empty on single-node deployments.
	WorkerName string
	// ChoiceOptions tunes choice-view construction for choices=1 requests
	// (zero value = the choice package defaults). Its Workers field is a
	// scheduling knob; every other field changes the built view and is part
	// of the cache signature.
	ChoiceOptions choice.Options
	// ChoiceCacheBytes is the byte budget of the content-addressed choice
	// view cache: built views are keyed by graph structure + choice options
	// with singleflight dedup, so repeat choices=1 submissions skip view
	// construction (0 = choice.DefaultCacheBudget, negative = disabled).
	ChoiceCacheBytes int64
}

// Server defaults.
const (
	DefaultMaxBodyBytes   = 8 << 20
	DefaultRequestTimeout = 60 * time.Second
	DefaultMaxTimeout     = 5 * time.Minute
	DefaultJobRetention   = time.Hour
)

// Server is the long-running mapping service: registry + scheduler +
// metrics behind an http.Handler.
type Server struct {
	cfg     Config
	reg     *Registry
	sched   *Scheduler
	metrics *Metrics
	mux     *http.ServeMux
	start   time.Time

	jobs    sync.Map // job id -> *datasetJob
	jobsSeq atomic.Int64

	// pool caches cut arenas across mapping requests (nil when ArenaCache
	// is negative): a service re-mapping the same design — parameter
	// sweeps, policy comparisons — reuses all cut storage from the previous
	// run instead of reallocating it.
	pool *cuts.Pool

	// cache holds mapped results content-addressed by (graph, options), so
	// resubmissions skip mapping entirely and — with cfg.ECO — edited
	// designs delta-remap against their nearest cached relative. Nil when
	// ResultCacheBytes is zero.
	cache *mapcache.Cache

	// views caches built choice views content-addressed by (graph, choice
	// options) with singleflight dedup, so repeat choices=1 submissions —
	// which fleet hash-affinity routes to the same worker — skip view
	// construction entirely. Nil when ChoiceCacheBytes is negative.
	views *choice.Cache

	// classify collapses concurrent identical /v1/classify submissions
	// (same graph, same model) into one classification run.
	classify *mapcache.Flight[*core.Classification]

	// coalescers holds one inference coalescer per registry model
	// (*nn.Model -> *infer.Coalescer), created on first slap/classify use
	// so requests against the same model share one engine.
	coalescers sync.Map

	// faultHook, when set (tests only), runs at the start of every mapping
	// worker with the request's endpoint, so panic recovery and budget
	// accounting can be exercised, and again inside a classification's
	// singleflight run with "classify run", so dedup can be.
	faultHook func(endpoint string)
}

// New assembles a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultRequestTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.JobsDir == "" {
		cfg.JobsDir = filepath.Join(os.TempDir(), "slap-jobs")
	}
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Registry,
		sched: NewScheduler(cfg.WorkerBudget, cfg.QueueCap),
		start: time.Now(),
	}
	if cfg.ArenaCache >= 0 {
		s.pool = cuts.NewPool(cfg.ArenaCache) // 0 = DefaultPoolArenas
	}
	if cfg.ResultCacheBytes != 0 {
		s.cache = mapcache.New(cfg.ResultCacheBytes) // negative = DefaultBudget
	}
	if cfg.ChoiceCacheBytes >= 0 {
		s.views = choice.NewCache(cfg.ChoiceCacheBytes) // 0 = DefaultCacheBudget
	}
	s.classify = mapcache.NewFlight[*core.Classification]()
	s.metrics = NewMetrics(s.sched)
	s.metrics.SetDegradedFunc(s.degradedReasons)
	if s.pool != nil {
		s.metrics.SetArenaStatsFunc(s.pool.Stats)
	}
	if s.cache != nil {
		s.metrics.SetMapCacheStatsFunc(s.cache.Stats)
	}
	if s.views != nil {
		s.metrics.SetChoiceCacheStatsFunc(s.views.Stats)
		s.views.OnBuild = s.metrics.ObserveChoiceBuild
	}

	mux := http.NewServeMux()
	mux.Handle("POST /v1/map", s.instrument("/v1/map", s.handleMap))
	mux.Handle("POST /v1/classify", s.instrument("/v1/classify", s.handleClassify))
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	mux.Handle("GET /v1/registry", s.instrument("/v1/registry", s.handleRegistryList))
	mux.Handle("POST /v1/registry/models", s.instrument("/v1/registry/models", s.handleRegistryAddModel))
	mux.Handle("POST /v1/registry/libraries", s.instrument("/v1/registry/libraries", s.handleRegistryAddLibrary))
	mux.Handle("POST /v1/jobs/dataset", s.instrument("/v1/jobs/dataset", s.handleJobSubmit))
	mux.Handle("POST /v1/shards/execute", s.instrument("/v1/shards/execute", s.handleShardExecute))
	mux.Handle("GET /v1/jobs", s.instrument("/v1/jobs", s.handleJobList))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobStatus))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobCancel))
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's registry (for startup preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Scheduler exposes the worker scheduler (gauges, tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Metrics exposes the server's metrics (expvar publication, tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close begins draining: queued requests fail fast with 503 while granted
// worker tokens stay borrowed until their mappings finish, and the
// inference coalescers refuse further calls (503). Call after
// http.Server.Shutdown has stopped accepting connections.
func (s *Server) Close() {
	s.sched.Close()
	s.coalescers.Range(func(_, v any) bool {
		v.(*infer.Coalescer).Close()
		return true
	})
}

// slapFor configures the SLAP flow of one mapping request: the request's
// round/choice knobs, the granted workers, the model's shared batcher and
// the server's arena pool and view cache.
func (s *Server) slapFor(req *MapRequest, model *nn.Model, lib *library.Library, workers int) *core.SLAP {
	sl := core.New(model, lib)
	sl.Workers = workers
	sl.Batch = s.batcherFor(model)
	sl.Rounds = req.Rounds
	sl.DelayFactor = req.DelayFactor
	sl.Choices = req.Choices
	sl.ChoiceOpts = s.cfg.ChoiceOptions
	sl.Views = s.views
	sl.Pool = s.pool
	return sl
}

// batcherFor returns the shared batched-inference hook for model, creating
// the engine + coalescer pair on first use. Returns an untyped nil when
// batching is disabled, so core sees Batch == nil and stays per-sample.
func (s *Server) batcherFor(model *nn.Model) core.Batcher {
	if s.cfg.MaxBatch < 0 {
		return nil
	}
	if v, ok := s.coalescers.Load(model); ok {
		return v.(*infer.Coalescer)
	}
	co := infer.NewCoalescer(infer.NewEngine(model, infer.Options{}), infer.CoalescerOptions{
		MaxBatch:  s.cfg.MaxBatch,
		Collector: s.metrics,
	})
	if prev, loaded := s.coalescers.LoadOrStore(model, co); loaded {
		co.Close()
		return prev.(*infer.Coalescer)
	}
	return co
}

// ---------------------------------------------------------------------------
// Request/response types

// MapRequest is the JSON envelope of POST /v1/map. When the request body is
// not JSON, the body is the circuit text itself and every other field is
// read from the URL query (same names).
type MapRequest struct {
	// Circuit is the AIGER or BLIF source text.
	Circuit string `json:"circuit"`
	// Format is the circuit format: aag, blif or auto (default auto).
	Format string `json:"format"`
	// Policy is the cut policy: default, unlimited, shuffle or slap.
	Policy string `json:"policy"`
	// Model names a registry model (required for policy slap and classify).
	Model string `json:"model"`
	// Library names a registry library (default asap7ish).
	Library string `json:"library"`
	// Target selects the backend: asic (standard cells, default) or lut.
	Target string `json:"target"`
	// Seed drives the shuffle policy.
	Seed int64 `json:"seed"`
	// Limit is the per-node cut budget of default/shuffle (0 = 250).
	Limit int `json:"limit"`
	// Workers requests a worker count; the scheduler clamps it to the
	// global budget (0 = whole budget).
	Workers int `json:"workers"`
	// TimeoutMS bounds the request (0 = server default).
	TimeoutMS int64 `json:"timeout_ms"`
	// Netlist selects an optional netlist payload: none, verilog or blif.
	Netlist string `json:"netlist"`
	// Verify re-simulates the mapped netlist against the subject graph.
	Verify bool `json:"verify"`
	// Detail requests per-node classes from /v1/classify.
	Detail bool `json:"detail"`
	// Rounds is the number of selection rounds: <= 1 keeps the classic
	// single-pass schedule, N > 1 runs the multi-round engine (round 1
	// delay/depth-optimal, then area-recovery rounds, exact-area last).
	Rounds int `json:"rounds"`
	// DelayFactor scales the round-1 delay into the recovery rounds'
	// required-time target; values <= 1 (including unset) pin the round-1
	// optimum.
	DelayFactor float64 `json:"delay_factor"`
	// Choices maps over a structural-choice view of the circuit, so
	// matching sees the union of each node's rewrite variants.
	Choices bool `json:"choices"`
}

// MapResponse is the JSON answer of POST /v1/map.
type MapResponse struct {
	Policy         string  `json:"policy"`
	Target         string  `json:"target"`
	Area           float64 `json:"area,omitempty"`
	Delay          float64 `json:"delay,omitempty"`
	ADP            float64 `json:"adp,omitempty"`
	Cells          int     `json:"cells,omitempty"`
	LUTs           int     `json:"luts,omitempty"`
	Depth          int32   `json:"depth,omitempty"`
	CutsConsidered int     `json:"cuts_considered"`
	PeakCuts       int     `json:"peak_cuts,omitempty"`
	MatchAttempts  int     `json:"match_attempts,omitempty"`
	Workers        int     `json:"workers"`
	QueueMS        float64 `json:"queue_ms"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	Verified       bool    `json:"verified,omitempty"`
	Worker         string  `json:"worker,omitempty"`
	Cached         bool    `json:"cached,omitempty"`
	ECO            bool    `json:"eco,omitempty"`
	DirtyFraction  float64 `json:"dirty_fraction,omitempty"`
	Netlist        string  `json:"netlist,omitempty"`
	NetlistFormat  string  `json:"netlist_format,omitempty"`
	// RoundsRun and RoundStats report per-round QoR when the multi-round
	// engine ran; absent on classic single-pass mappings.
	RoundsRun  int        `json:"rounds_run,omitempty"`
	RoundStats []RoundQoR `json:"round_stats,omitempty"`
}

// RoundQoR is one round's QoR record in a multi-round mapping response.
// Area/Delay report the asic cover estimate, LUTs/Depth the lut cover.
type RoundQoR struct {
	Round          int     `json:"round"`
	Mode           string  `json:"mode"`
	Area           float64 `json:"area,omitempty"`
	Delay          float64 `json:"delay,omitempty"`
	LUTs           int     `json:"luts,omitempty"`
	Depth          int32   `json:"depth,omitempty"`
	CutsConsidered int     `json:"cuts_considered"`
	PeakCuts       int     `json:"peak_cuts,omitempty"`
}

// asicRounds converts mapper round stats into response records.
func asicRounds(stats []mapper.RoundStat) (int, []RoundQoR) {
	if len(stats) == 0 {
		return 0, nil
	}
	out := make([]RoundQoR, len(stats))
	for i, st := range stats {
		out[i] = RoundQoR{
			Round: st.Round, Mode: st.Mode,
			Area: st.EstArea, Delay: st.EstDelay,
			CutsConsidered: st.CutsConsidered, PeakCuts: st.PeakCuts,
		}
	}
	return len(stats), out
}

// lutRounds converts lutmap round stats into response records.
func lutRounds(stats []lutmap.RoundStat) (int, []RoundQoR) {
	if len(stats) == 0 {
		return 0, nil
	}
	out := make([]RoundQoR, len(stats))
	for i, st := range stats {
		out[i] = RoundQoR{
			Round: st.Round, Mode: st.Mode,
			LUTs: st.LUTs, Depth: st.Depth,
			CutsConsidered: st.CutsConsidered, PeakCuts: st.PeakCuts,
		}
	}
	return len(stats), out
}

// roundAreaGain is the relative area (asic) or LUT-count (lut) improvement
// of the final recovery round over the round-1 delay/depth cover.
func roundAreaGain(first, last RoundQoR) (float64, bool) {
	switch {
	case first.Area > 0:
		return (first.Area - last.Area) / first.Area, true
	case first.LUTs > 0:
		return float64(first.LUTs-last.LUTs) / float64(first.LUTs), true
	}
	return 0, false
}

// ClassifyResponse is the JSON answer of POST /v1/classify.
type ClassifyResponse struct {
	Model     string                `json:"model"`
	Nodes     int                   `json:"nodes"`
	Cuts      int                   `json:"cuts"`
	Histogram []int                 `json:"histogram"`
	Workers   int                   `json:"workers"`
	Worker    string                `json:"worker,omitempty"`
	Shared    bool                  `json:"shared,omitempty"`
	ElapsedMS float64               `json:"elapsed_ms"`
	Detail    []core.NodeCutClasses `json:"detail,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------------
// Instrumentation and helpers

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument records per-endpoint request counts and latencies, and is
// the panic bulkhead: a panicking handler answers 500 (when no bytes are
// out yet), bumps panics_total, and the connection — not the process —
// is the blast radius.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.AddPanic()
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
				} else {
					sw.status = http.StatusInternalServerError
				}
			}
			s.metrics.Observe(endpoint, sw.status, time.Since(t0))
		}()
		h(sw, r)
	})
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

// parseRequest reads the request envelope and decodes the circuit. The body
// is size-limited; oversized bodies yield 413, undecodable circuits 400.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*MapRequest, *aig.AIG, int, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req := &MapRequest{}

	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		if err := json.NewDecoder(body).Decode(req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			}
			return nil, nil, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err)
		}
	} else {
		// Raw circuit body; options come from the URL query.
		raw, err := io.ReadAll(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			}
			return nil, nil, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
		}
		req.Circuit = string(raw)
		q := r.URL.Query()
		req.Format = q.Get("format")
		req.Policy = q.Get("policy")
		req.Model = q.Get("model")
		req.Library = q.Get("library")
		req.Target = q.Get("target")
		req.Netlist = q.Get("netlist")
		req.Seed = queryInt64(q.Get("seed"))
		req.Limit = int(queryInt64(q.Get("limit")))
		req.Workers = int(queryInt64(q.Get("workers")))
		req.TimeoutMS = queryInt64(q.Get("timeout_ms"))
		req.Verify = queryBool(q.Get("verify"))
		req.Detail = queryBool(q.Get("detail"))
		req.Rounds = int(queryInt64(q.Get("rounds")))
		req.DelayFactor = queryFloat(q.Get("delay_factor"))
		req.Choices = queryBool(q.Get("choices"))
	}
	if strings.TrimSpace(req.Circuit) == "" {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("empty circuit: send AIGER/BLIF text as the body, or a JSON envelope with a \"circuit\" field")
	}
	g, err := aig.Decode(req.Format, strings.NewReader(req.Circuit))
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	return req, g, http.StatusOK, nil
}

func queryInt64(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

func queryBool(s string) bool {
	v, _ := strconv.ParseBool(s)
	return v
}

func queryFloat(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// requestChoiceView resolves the graph a request maps over: the original,
// or — when the client asked for structural choices — a combined choice
// view whose equivalence classes the enumerator exposes to matching. The
// view shares the base PIs/POs, so verification and netlist emission still
// run against the client's circuit. Views are checked out of the server's
// content-addressed cache (built at most once per (graph, options) pair,
// concurrent identical requests share one build) under the configured
// choice options; construction honours ctx, so a dropped client or an
// expired deadline aborts an in-flight build instead of burning the full
// SAT budget.
func (s *Server) requestChoiceView(ctx context.Context, g *aig.AIG, choices bool) (*aig.AIG, cuts.ChoiceSource, error) {
	if !choices {
		return g, nil, nil
	}
	var v *choice.View
	var err error
	if s.views != nil {
		v, err = s.views.Checkout(ctx, g, s.cfg.ChoiceOptions)
	} else {
		v, err = choice.BuildContext(ctx, g, s.cfg.ChoiceOptions)
		if err == nil {
			s.metrics.ObserveChoiceBuild(v)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return v.G, v, nil
}

// timeoutFor clamps a client-requested timeout to the server's cap.
func (s *Server) timeoutFor(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// schedStatus maps scheduler/context errors to HTTP statuses.
func schedStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed), errors.Is(err, infer.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ---------------------------------------------------------------------------
// Handlers

// degradedReasons lists why the service is degraded (empty = healthy):
// registry artifacts that failed to hot-load and dataset jobs that blew
// their failure budget. Degraded is not down — the service keeps
// answering 200 — but operators and probes see it flagged.
func (s *Server) degradedReasons() []string {
	var reasons []string
	if n, last := s.reg.LoadFailures(); n > 0 {
		reasons = append(reasons, fmt.Sprintf("registry: %d artifact load failure(s), last: %s", n, last))
	}
	s.jobs.Range(func(_, v any) bool {
		j := v.(*datasetJob)
		if j.budgetExceeded() {
			reasons = append(reasons, fmt.Sprintf("dataset job %s exceeded its failure budget", j.id))
		}
		return true
	})
	return reasons
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	reasons := s.degradedReasons()
	if len(reasons) > 0 {
		status = "degraded"
	}
	body := map[string]any{
		"status":    status,
		"degraded":  reasons,
		"uptime_s":  time.Since(s.start).Seconds(),
		"models":    len(s.reg.Models()),
		"libraries": len(s.reg.Libraries()),
		"budget":    s.sched.Budget(),
		"inflight":  s.sched.InFlight(),
		"queued":    s.sched.QueueDepth(),
	}
	if s.cfg.WorkerName != "" {
		body["worker"] = s.cfg.WorkerName
	}
	// Cache warmth, for fleet coordinators judging routing quality: how
	// many designs this node can re-map with a warm arena, and how many
	// mapped results (and ECO baselines) it holds.
	if s.pool != nil {
		ps := s.pool.Stats()
		body["arena_cached"] = ps.Cached
		body["arena_graphs"] = ps.Graphs
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		body["mapcache_entries"] = cs.Entries
		body["mapcache_snapshots"] = cs.Snapshots
		body["mapcache_bytes"] = cs.Bytes
	}
	if s.views != nil {
		vs := s.views.Stats()
		body["choice_views"] = vs.Views
		body["choice_view_bytes"] = vs.Bytes
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

func (s *Server) handleRegistryList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"models":    s.reg.Models(),
		"libraries": s.reg.Libraries(),
	})
}

type registryAddRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

func (s *Server) handleRegistryAddModel(w http.ResponseWriter, r *http.Request) {
	s.handleRegistryAdd(w, r, s.reg.AddModelFile)
}

func (s *Server) handleRegistryAddLibrary(w http.ResponseWriter, r *http.Request) {
	s.handleRegistryAdd(w, r, s.reg.AddLibraryFile)
}

// handleRegistryAdd hot-adds an artifact from a server-local path, named
// either by URL query (?name=exp&path=/models/exp.gob) or a JSON body.
func (s *Server) handleRegistryAdd(w http.ResponseWriter, r *http.Request, add func(name, path string) error) {
	q := r.URL.Query()
	req := registryAddRequest{Name: q.Get("name"), Path: q.Get("path")}
	if req.Path == "" {
		body := http.MaxBytesReader(w, r.Body, 1<<16)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON request: %w", err))
			return
		}
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"path\""))
		return
	}
	if err := add(req.Name, req.Path); err != nil {
		s.reg.RecordLoadFailure(err)
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already registered") {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	s.handleRegistryList(w, r)
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	req, g, status, err := s.parseRequest(w, r)
	if err != nil {
		writeError(w, status, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()

	lib, err := s.reg.Library(req.Library)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var model *nn.Model
	if req.Policy == "slap" {
		if req.Model == "" {
			writeError(w, http.StatusBadRequest, errors.New("policy \"slap\" requires \"model\" (see GET /v1/registry)"))
			return
		}
		if model, err = s.reg.Model(req.Model); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
	}

	t0 := time.Now()
	granted, release, err := s.sched.Acquire(ctx, req.Workers)
	if err != nil {
		writeError(w, schedStatus(err), err)
		return
	}
	queueMS := float64(time.Since(t0).Microseconds()) / 1000

	type outcome struct {
		resp *MapResponse
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		// The mapping holds its worker tokens until it actually finishes,
		// even if the handler has already answered 504 — that is what keeps
		// the global budget honest. Recovery runs before the deferred
		// release (LIFO), so a panicking mapping still hands its tokens
		// back and answers 500 instead of killing the process.
		defer release()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.AddPanic()
				ch <- outcome{nil, fmt.Errorf("mapping panicked: %v", p)}
			}
		}()
		resp, err := s.executeMap(ctx, req, g, lib, model, granted)
		if resp != nil {
			s.metrics.AddCuts(resp.CutsConsidered)
			s.metrics.ObservePeakCuts(resp.PeakCuts)
			rounds := resp.RoundsRun
			if rounds < 1 {
				rounds = 1
			}
			s.metrics.ObserveRounds(rounds)
			if n := len(resp.RoundStats); n > 1 {
				if gain, ok := roundAreaGain(resp.RoundStats[0], resp.RoundStats[n-1]); ok {
					s.metrics.ObserveRoundAreaGain(gain)
				}
			}
		}
		ch <- outcome{resp, err}
	}()

	select {
	case out := <-ch:
		if out.err != nil {
			writeError(w, schedStatus(out.err), out.err)
			return
		}
		out.resp.QueueMS = queueMS
		out.resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
		out.resp.Worker = s.cfg.WorkerName
		s.stampWorker(w)
		writeJSON(w, http.StatusOK, out.resp)
	case <-ctx.Done():
		writeError(w, schedStatus(ctx.Err()), fmt.Errorf("mapping abandoned: %w", ctx.Err()))
	}
}

// stampWorker sets the X-Slap-Worker response header on fleet nodes, so
// even payloads without a worker field (errors, raw shard frames) reveal
// which node answered.
func (s *Server) stampWorker(w http.ResponseWriter) {
	if s.cfg.WorkerName != "" {
		w.Header().Set("X-Slap-Worker", s.cfg.WorkerName)
	}
}

// executeMap runs one mapping with the granted worker count. Each request
// maps its own freshly decoded graph; the only shared state is the
// registry's model (read-only) and library (internally locked memo).
func (s *Server) executeMap(ctx context.Context, req *MapRequest, g *aig.AIG, lib *library.Library, model *nn.Model, workers int) (*MapResponse, error) {
	if s.faultHook != nil {
		s.faultHook("/v1/map")
	}
	target := req.Target
	if target == "" {
		target = "asic"
	}
	policy := req.Policy
	if policy == "" {
		policy = "default"
	}

	var cutPolicy cuts.Policy
	switch policy {
	case "default":
		cutPolicy = cuts.DefaultPolicy{Limit: req.Limit}
	case "unlimited":
		cutPolicy = cuts.UnlimitedPolicy{}
	case "shuffle":
		cutPolicy = &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(req.Seed)), Limit: req.Limit}
	case "slap":
		// handled below via core.SLAP
	default:
		return nil, fmt.Errorf("unknown policy %q (want default, unlimited, shuffle or slap)", policy)
	}

	resp := &MapResponse{Target: target, Workers: workers}
	switch target {
	case "lut":
		var res *lutmap.Result
		var err error
		if policy == "slap" {
			res, err = s.slapFor(req, model, lib, workers).MapLUTStreamContext(ctx, g)
		} else {
			mg, ch, cerr := s.requestChoiceView(ctx, g, req.Choices)
			if cerr != nil {
				return nil, cerr
			}
			res, err = lutmap.MapStream(mg, lutmap.Options{
				Policy: cutPolicy, Workers: workers, Pool: s.pool,
				Rounds: req.Rounds, DelayFactor: req.DelayFactor, Choices: ch,
			})
		}
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if req.Verify {
			if err := res.EquivalentTo(g, 8, rand.New(rand.NewSource(99))); err != nil {
				return nil, fmt.Errorf("equivalence check failed: %w", err)
			}
			resp.Verified = true
		}
		resp.Policy = res.PolicyName
		resp.LUTs = res.NumLUTs()
		resp.Depth = res.Depth
		resp.CutsConsidered = res.CutsConsidered
		resp.PeakCuts = res.PeakCuts
		resp.RoundsRun, resp.RoundStats = lutRounds(res.RoundStats)
		return resp, nil
	case "asic":
		var served *asicServed
		var err error
		if s.cache != nil {
			served, err = s.cachedMapASIC(ctx, req, g, lib, model, workers, policy, cutPolicy)
		} else {
			var res *mapper.Result
			if policy == "slap" {
				res, err = s.slapFor(req, model, lib, workers).MapStreamContext(ctx, g)
			} else {
				mg, ch, cerr := s.requestChoiceView(ctx, g, req.Choices)
				if cerr != nil {
					return nil, cerr
				}
				res, err = mapper.MapStream(mg, mapper.Options{
					Library: lib, Policy: cutPolicy, Workers: workers, Pool: s.pool,
					Rounds: req.Rounds, DelayFactor: req.DelayFactor, Choices: ch,
				})
			}
			served = &asicServed{res: res}
		}
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := served.res
		resp.Policy = res.PolicyName
		resp.PeakCuts = res.PeakCuts
		resp.Area = res.Area
		resp.Delay = res.Delay
		resp.ADP = res.ADP()
		resp.Cells = res.Netlist.NumCells()
		resp.CutsConsidered = res.CutsConsidered
		resp.MatchAttempts = res.MatchAttempts
		resp.Cached = served.cached
		resp.ECO = served.eco
		resp.DirtyFraction = served.dirty
		resp.RoundsRun, resp.RoundStats = asicRounds(res.RoundStats)
		if req.Verify {
			// Cached entries carry their verify bit; an entry cached without
			// verification is checked here without re-mapping.
			if !served.verified {
				if err := res.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))); err != nil {
					return nil, fmt.Errorf("equivalence check failed: %w", err)
				}
			}
			resp.Verified = true
		}
		switch req.Netlist {
		case "", "none":
		case "verilog":
			var buf bytes.Buffer
			if err := res.Netlist.WriteVerilog(&buf); err != nil {
				return nil, err
			}
			resp.Netlist, resp.NetlistFormat = buf.String(), "verilog"
		case "blif":
			var buf bytes.Buffer
			if err := res.Netlist.WriteBLIF(&buf); err != nil {
				return nil, err
			}
			resp.Netlist, resp.NetlistFormat = buf.String(), "blif"
		default:
			return nil, fmt.Errorf("unknown netlist format %q (want verilog, blif or none)", req.Netlist)
		}
		return resp, nil
	default:
		return nil, fmt.Errorf("unknown target %q (want asic or lut)", target)
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	req, g, status, err := s.parseRequest(w, r)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if req.Model == "" {
		writeError(w, http.StatusBadRequest, errors.New("classify requires \"model\" (see GET /v1/registry)"))
		return
	}
	model, err := s.reg.Model(req.Model)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	lib, err := s.reg.Library(req.Library)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()

	t0 := time.Now()
	granted, release, err := s.sched.Acquire(ctx, req.Workers)
	if err != nil {
		writeError(w, schedStatus(err), err)
		return
	}

	type outcome struct {
		cls    *core.Classification
		shared bool
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		defer func() {
			if p := recover(); p != nil {
				s.metrics.AddPanic()
				ch <- outcome{nil, false, fmt.Errorf("classification panicked: %v", p)}
			}
		}()
		if s.faultHook != nil {
			s.faultHook("/v1/classify")
		}
		// Concurrent identical submissions (same graph, same model) share one
		// classification run; only the leader counts the cuts it processed.
		key := mapcache.KeyOf(g, fmt.Sprintf("classify/model=%p", model))
		cls, shared, err := s.classify.Do(key, func() (*core.Classification, error) {
			if s.faultHook != nil {
				s.faultHook("classify run")
			}
			sl := core.New(model, lib)
			sl.Workers = granted
			sl.Batch = s.batcherFor(model)
			cls, err := sl.ClassifyContext(ctx, g)
			if cls != nil {
				s.metrics.AddCuts(cls.TotalCuts)
			}
			return cls, err
		})
		ch <- outcome{cls, shared, err}
	}()

	select {
	case out := <-ch:
		if out.err != nil {
			writeError(w, schedStatus(out.err), out.err)
			return
		}
		resp := &ClassifyResponse{
			Model:     req.Model,
			Nodes:     len(out.cls.Nodes),
			Cuts:      out.cls.TotalCuts,
			Histogram: out.cls.Histogram,
			Workers:   granted,
			Worker:    s.cfg.WorkerName,
			Shared:    out.shared,
			ElapsedMS: float64(time.Since(t0).Microseconds()) / 1000,
		}
		if req.Detail {
			resp.Detail = out.cls.Nodes
		}
		s.stampWorker(w)
		writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		writeError(w, schedStatus(ctx.Err()), fmt.Errorf("classification abandoned: %w", ctx.Err()))
	}
}
