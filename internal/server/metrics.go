package server

import (
	"strconv"
	"time"

	"slap/internal/choice"
	"slap/internal/cuts"
	"slap/internal/infer"
	"slap/internal/mapcache"
	"slap/internal/metrics"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, chosen to straddle everything from a /healthz probe to a
// paper-profile AES mapping.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// batchSizeBuckets are the upper bounds of the inference batch-size
// histogram; the top bucket sits above infer.DefaultMaxBatch, the largest
// pass the server's coalescers run.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// dirtyFractionBuckets are the upper bounds of the ECO dirty-cone-fraction
// histogram: the share of AND nodes a delta remap had to re-process.
// Small fractions are the payoff region, so the buckets concentrate there.
var dirtyFractionBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9}

// roundsBuckets are the upper bounds of the selection-rounds histogram:
// 1 is the classic single-pass schedule, everything above is multi-round.
var roundsBuckets = []float64{1, 2, 3, 4, 6, 8}

// roundGainBuckets are the upper bounds of the multi-round relative
// area-improvement histogram (final round vs round-1 delay cover);
// regressions (negative gain) land in the first bucket.
var roundGainBuckets = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5}

// serviceMetrics holds the service's series on one registry, which serves
// GET /metrics.
type serviceMetrics struct {
	*metrics.Registry
	start time.Time

	requests      metrics.Vec[metrics.Counter] // by endpoint, code
	latency       *metrics.Histogram
	cuts          *metrics.Counter
	mappings      *metrics.Counter
	batchSize     *metrics.Histogram
	dirtyFraction *metrics.Histogram
	rounds        *metrics.Histogram
	roundGain     *metrics.Histogram
	choiceBuilds  *metrics.Counter
	choicePhase   metrics.Vec[metrics.Counter] // build seconds by phase
	choiceProofs  metrics.Vec[metrics.Counter] // by outcome
	peakCuts      *metrics.Gauge
	panics        *metrics.Counter
}

// newMetrics declares the service's series in exposition order. The
// scheduler gauges, cache counters and health read s at scrape time; the
// counters of a cache that is off read zero.
func newMetrics(s *Server) *serviceMetrics {
	r := metrics.New()
	m := &serviceMetrics{Registry: r, start: s.start}
	m.requests = r.CounterVec("slap_requests_total", "Completed HTTP requests by endpoint and status.", "endpoint", "code")
	m.latency = r.Histogram("slap_request_seconds", "Request latency histogram.", latencyBuckets)
	r.GaugeFunc("slap_queue_depth", "Requests waiting for worker tokens.", func() float64 { return float64(s.sched.QueueDepth()) })
	r.GaugeFunc("slap_inflight_workers", "Worker tokens currently borrowed.", func() float64 { return float64(s.sched.InFlight()) })
	r.GaugeFunc("slap_worker_budget", "Global worker-token budget.", func() float64 { return float64(s.sched.Budget()) })
	m.cuts = r.Counter("slap_cuts_considered_total", "Cuts exposed to Boolean matching across all mappings.")
	m.mappings = r.Counter("slap_mappings_total", "Completed mapping runs.")
	r.GaugeFunc("slap_cuts_per_second", "Mean cut throughput since start.", m.CutsPerSec)
	m.batchSize = r.Histogram("slap_infer_batch_size", "Samples per batched inference forward pass.", batchSizeBuckets)

	arena := func() cuts.PoolStats { return cuts.PoolStats{} }
	if s.pool != nil {
		arena = s.pool.Stats
	}
	r.CounterFunc("slap_arena_hits_total", "Mapping requests served by a cached cut arena.", func() float64 { return float64(arena().Hits) })
	r.CounterFunc("slap_arena_misses_total", "Mapping requests that built a fresh cut arena.", func() float64 { return float64(arena().Misses) })
	r.GaugeFunc("slap_arena_cached", "Cut arenas currently parked in the cross-request pool.", func() float64 { return float64(arena().Cached) })
	r.CounterFunc("slap_arena_evictions_total", "Cut arenas dropped because the pool was full.", func() float64 { return float64(arena().Evictions) })

	results := func() mapcache.Stats { return mapcache.Stats{} }
	if s.cache != nil {
		results = s.cache.Stats
	}
	r.CounterFunc("slap_mapcache_hits", "Mapping requests answered from the result cache (exact repeats and singleflight followers).", func() float64 { return float64(results().Hits) })
	r.CounterFunc("slap_mapcache_misses", "Mapping requests whose content address was not cached.", func() float64 { return float64(results().Misses) })
	r.CounterFunc("slap_mapcache_eco_hits", "Cache misses served by delta-remapping against a cached relative.", func() float64 { return float64(results().ECOHits) })
	r.CounterFunc("slap_mapcache_evictions", "Result-cache entries dropped to stay inside the byte budget.", func() float64 { return float64(results().Evictions) })
	r.GaugeFunc("slap_mapcache_bytes", "Estimated resident size of the result cache.", func() float64 { return float64(results().Bytes) })
	r.GaugeFunc("slap_mapcache_entries", "Result-cache entries currently resident.", func() float64 { return float64(results().Entries) })

	m.dirtyFraction = r.Histogram("slap_eco_dirty_fraction", "Fraction of AND nodes re-processed per ECO delta remap.", dirtyFractionBuckets)
	m.rounds = r.Histogram("slap_map_rounds", "Selection rounds executed per mapping (1 = classic single pass).", roundsBuckets)
	m.roundGain = r.Histogram("slap_map_round_area_gain", "Relative area improvement of the final recovery round over the round-1 cover.", roundGainBuckets)
	m.choiceBuilds = r.Counter("slap_choice_builds_total", "Fresh choice-view builds (cached checkouts excluded).")
	m.choicePhase = r.CounterVec("slap_choice_build_seconds", "Wall time spent in each choice-view build phase, summed across fresh builds.", "phase")
	m.choiceProofs = r.CounterVec("slap_choice_proofs_total", "Choice-prover certificate outcomes across fresh builds.", "outcome")
	for _, phase := range []string{"graft", "simulate", "prove"} {
		m.choicePhase.With(phase) // every phase and outcome renders from the start
	}
	for _, outcome := range []string{"proved", "refuted", "budget_exhausted"} {
		m.choiceProofs.With(outcome)
	}

	views := func() choice.CacheStats { return choice.CacheStats{} }
	if s.views != nil {
		views = s.views.Stats
	}
	r.CounterFunc("slap_choice_viewcache_hits", "Choice-view checkouts served from the cache (exact repeats and singleflight followers).", func() float64 { return float64(views().Hits) })
	r.CounterFunc("slap_choice_viewcache_misses", "Choice-view checkouts that built a fresh view.", func() float64 { return float64(views().Misses) })
	r.GaugeFunc("slap_choice_viewcache_bytes", "Estimated resident size of cached choice views.", func() float64 { return float64(views().Bytes) })
	r.CounterFunc("slap_choice_viewcache_evictions", "Cached choice views dropped to stay inside the byte budget.", func() float64 { return float64(views().Evictions) })
	r.GaugeFunc("slap_choice_viewcache_views", "Choice views currently resident in the cache.", func() float64 { return float64(views().Views) })

	m.peakCuts = r.Gauge("slap_peak_live_cuts", "Largest simultaneously-live cut count any mapping reported.")
	m.panics = r.Counter("slap_panics_total", "Handler and worker panics recovered by the service.")
	r.GaugeFunc("slap_degraded", "Number of active degradation reasons (0 = healthy).", func() float64 { return float64(len(s.degradedReasons())) })
	r.GaugeFunc("slap_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.start).Seconds() })
	return m
}

// ObserveFlush implements infer.Collector: every inference forward pass
// lands in the batch-size histogram.
func (m *serviceMetrics) ObserveFlush(fs infer.FlushStats) {
	m.batchSize.Observe(float64(fs.Size))
}

// Observe records one completed request.
func (m *serviceMetrics) Observe(endpoint string, status int, d time.Duration) {
	m.requests.With(endpoint, strconv.Itoa(status)).Inc()
	m.latency.Observe(d.Seconds())
}

// AddCuts accumulates cuts exposed to matching by one mapping request —
// the numerator of the cuts/sec throughput gauge.
func (m *serviceMetrics) AddCuts(n int) {
	m.cuts.Add(float64(n))
	m.mappings.Inc()
}

// ObserveMap records one mapping answer, a cache hit's included: its cuts,
// peak live cuts, rounds and the final round's area gain.
func (m *serviceMetrics) ObserveMap(resp *MapResponse) {
	m.AddCuts(resp.CutsConsidered)
	m.peakCuts.SetMax(float64(resp.PeakCuts))
	m.rounds.Observe(float64(max(resp.RoundsRun, 1)))
	if n := len(resp.RoundStats); n > 1 {
		if gain, ok := roundAreaGain(resp.RoundStats[0], resp.RoundStats[n-1]); ok {
			m.roundGain.Observe(gain)
		}
	}
}

// ObserveChoiceBuild records one fresh choice-view build: per-phase wall
// time plus the prover's outcome tallies.
func (m *serviceMetrics) ObserveChoiceBuild(v *choice.View) {
	ph := v.Phases()
	m.choiceBuilds.Inc()
	m.choicePhase.With("graft").Add(ph.Graft.Seconds())
	m.choicePhase.With("simulate").Add(ph.Simulate.Seconds())
	m.choicePhase.With("prove").Add(ph.Prove.Seconds())
	m.choiceProofs.With("proved").Add(float64(v.ProvedMembers()))
	m.choiceProofs.With("refuted").Add(float64(v.DroppedDiffer()))
	m.choiceProofs.With("budget_exhausted").Add(float64(v.DroppedBudget()))
}

// CutsPerSec returns mean cut throughput since the server started.
func (m *serviceMetrics) CutsPerSec() float64 {
	up := time.Since(m.start).Seconds()
	if up <= 0 {
		return 0
	}
	return m.cuts.Value() / up
}
