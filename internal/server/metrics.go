package server

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"slap/internal/choice"
	"slap/internal/cuts"
	"slap/internal/infer"
	"slap/internal/mapcache"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, chosen to straddle everything from a /healthz probe to a
// paper-profile AES mapping.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// batchSizeBuckets are the upper bounds of the inference batch-size
// histogram; the top bucket sits above any realistic MaxBatch.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// queueWaitBuckets are the upper bounds (seconds) of the coalescer
// queue-wait histogram, spanning sub-deadline waits to stalled backends.
var queueWaitBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.5,
}

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

// Metrics aggregates service observability: per-endpoint/status request
// counts, a global latency histogram, cut throughput, and the scheduler's
// queue/inflight gauges. It renders both Prometheus text (GET /metrics)
// and an expvar snapshot.
type Metrics struct {
	start time.Time
	sched *Scheduler

	mu           sync.Mutex
	requests     map[string]map[int]int64 // endpoint -> status -> count
	bucketCounts []int64
	latencySum   float64
	latencyCount int64
	cutsTotal    int64
	mapsTotal    int64
	panicsTotal  int64
	// Inference coalescer telemetry (Metrics implements infer.Collector).
	batchBuckets   []int64
	batchSum       int64
	batchCount     int64
	waitBuckets    []int64
	waitSum        float64
	flushesByCause map[infer.FlushReason]int64
	// peakCutsMax is the largest simultaneously-live cut count any single
	// mapping reported — the streaming pipeline's working-set high-water
	// mark.
	peakCutsMax int64
	// ECO delta-remap telemetry: dirty-cone-fraction histogram.
	dirtyBuckets []int64
	dirtySum     float64
	dirtyCount   int64
	// Multi-round mapping telemetry: selection rounds per mapping and the
	// relative area improvement recovery bought over the round-1 cover.
	roundBuckets []int64
	roundSum     int64
	roundCount   int64
	gainBuckets  []int64
	gainSum      float64
	gainCount    int64
	// Choice-view construction telemetry: per-phase build wall time and
	// proof outcome counters, aggregated across fresh builds only (cached
	// checkouts re-observe nothing).
	choiceBuilds      int64
	choiceGraftSec    float64
	choiceSimulateSec float64
	choiceProveSec    float64
	choiceProved      int64
	choiceRefuted     int64
	choiceBudgetedOut int64
	// degraded reports current degradation reasons (nil = never degraded);
	// set once at server assembly, read at scrape time.
	degraded func() []string
	// arenaStats reports the cut-arena pool counters (nil = no pool).
	arenaStats func() cuts.PoolStats
	// mapCacheStats reports the mapping result cache counters (nil = no
	// cache configured).
	mapCacheStats func() mapcache.Stats
	// choiceCacheStats reports the choice view cache counters (nil = no
	// view cache configured).
	choiceCacheStats func() choice.CacheStats
	// batchWait reports the current coalescer flush deadline in seconds
	// (nil = no batching).
	batchWait func() float64
}

// NewMetrics returns a Metrics bound to the scheduler's gauges.
func NewMetrics(sched *Scheduler) *Metrics {
	return &Metrics{
		start:          time.Now(),
		sched:          sched,
		requests:       make(map[string]map[int]int64),
		bucketCounts:   make([]int64, len(latencyBuckets)+1),
		batchBuckets:   make([]int64, len(batchSizeBuckets)+1),
		waitBuckets:    make([]int64, len(queueWaitBuckets)+1),
		dirtyBuckets:   make([]int64, len(dirtyFractionBuckets)+1),
		roundBuckets:   make([]int64, len(roundsBuckets)+1),
		gainBuckets:    make([]int64, len(roundGainBuckets)+1),
		flushesByCause: make(map[infer.FlushReason]int64),
	}
}

// ObserveFlush implements infer.Collector: every coalescer flush lands in
// the batch-size and queue-wait histograms plus the per-reason counter.
func (m *Metrics) ObserveFlush(fs infer.FlushStats) {
	sec := fs.QueueWait.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchBuckets[sort.SearchFloat64s(batchSizeBuckets, float64(fs.Size))]++
	m.batchSum += int64(fs.Size)
	m.batchCount++
	m.waitBuckets[sort.SearchFloat64s(queueWaitBuckets, sec)]++
	m.waitSum += sec
	m.flushesByCause[fs.Reason]++
}

// Observe records one completed request.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[endpoint]
	if byStatus == nil {
		byStatus = make(map[int]int64)
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	i := sort.SearchFloat64s(latencyBuckets, sec)
	m.bucketCounts[i]++
	m.latencySum += sec
	m.latencyCount++
}

// AddCuts accumulates cuts exposed to matching by one mapping request —
// the numerator of the cuts/sec throughput gauge.
func (m *Metrics) AddCuts(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cutsTotal += int64(n)
	m.mapsTotal++
}

// AddPanic counts one recovered handler or worker panic.
func (m *Metrics) AddPanic() {
	m.mu.Lock()
	m.panicsTotal++
	m.mu.Unlock()
}

// Panics returns the recovered-panic count.
func (m *Metrics) Panics() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.panicsTotal
}

// SetDegradedFunc installs the callback that reports current degradation
// reasons (empty = healthy). Call before serving; it is read at scrape
// time without further synchronisation.
func (m *Metrics) SetDegradedFunc(f func() []string) { m.degraded = f }

// SetArenaStatsFunc installs the callback that reports the cut-arena pool
// counters. Call before serving.
func (m *Metrics) SetArenaStatsFunc(f func() cuts.PoolStats) { m.arenaStats = f }

// SetBatchWaitFunc installs the callback that reports the current
// (possibly adaptive) coalescer flush deadline in seconds. Call before
// serving.
func (m *Metrics) SetBatchWaitFunc(f func() float64) { m.batchWait = f }

// SetMapCacheStatsFunc installs the callback that reports the mapping
// result cache counters. Call before serving.
func (m *Metrics) SetMapCacheStatsFunc(f func() mapcache.Stats) { m.mapCacheStats = f }

// SetChoiceCacheStatsFunc installs the callback that reports the choice
// view cache counters. Call before serving.
func (m *Metrics) SetChoiceCacheStatsFunc(f func() choice.CacheStats) { m.choiceCacheStats = f }

// ObserveChoiceBuild records one fresh choice-view build: per-phase wall
// time plus the prover's outcome tallies.
func (m *Metrics) ObserveChoiceBuild(v *choice.View) {
	ph := v.Phases()
	m.mu.Lock()
	m.choiceBuilds++
	m.choiceGraftSec += ph.Graft.Seconds()
	m.choiceSimulateSec += ph.Simulate.Seconds()
	m.choiceProveSec += ph.Prove.Seconds()
	m.choiceProved += int64(v.ProvedMembers())
	m.choiceRefuted += int64(v.DroppedDiffer())
	m.choiceBudgetedOut += int64(v.DroppedBudget())
	m.mu.Unlock()
}

// ObserveDirtyFraction records one ECO delta remap's dirty-cone fraction.
func (m *Metrics) ObserveDirtyFraction(f float64) {
	m.mu.Lock()
	m.dirtyBuckets[sort.SearchFloat64s(dirtyFractionBuckets, f)]++
	m.dirtySum += f
	m.dirtyCount++
	m.mu.Unlock()
}

// ObserveRounds records how many selection rounds one mapping executed
// (1 for the classic single-pass schedule).
func (m *Metrics) ObserveRounds(rounds int) {
	m.mu.Lock()
	m.roundBuckets[sort.SearchFloat64s(roundsBuckets, float64(rounds))]++
	m.roundSum += int64(rounds)
	m.roundCount++
	m.mu.Unlock()
}

// ObserveRoundAreaGain records the relative area (asic) or LUT-count (lut)
// improvement of a multi-round mapping's final round over its round-1
// delay/depth cover.
func (m *Metrics) ObserveRoundAreaGain(g float64) {
	m.mu.Lock()
	m.gainBuckets[sort.SearchFloat64s(roundGainBuckets, g)]++
	m.gainSum += g
	m.gainCount++
	m.mu.Unlock()
}

// ObservePeakCuts records one mapping's peak live-cut count, keeping the
// high-water mark across all mappings.
func (m *Metrics) ObservePeakCuts(n int) {
	m.mu.Lock()
	if int64(n) > m.peakCutsMax {
		m.peakCutsMax = int64(n)
	}
	m.mu.Unlock()
}

// CutsPerSec returns mean cut throughput since the server started.
func (m *Metrics) CutsPerSec() float64 {
	up := time.Since(m.start).Seconds()
	if up <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(m.cutsTotal) / up
}

// WritePrometheus renders the Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	type row struct {
		endpoint string
		status   int
		count    int64
	}
	var rows []row
	for ep, byStatus := range m.requests {
		for st, c := range byStatus {
			rows = append(rows, row{ep, st, c})
		}
	}
	buckets := append([]int64(nil), m.bucketCounts...)
	latencySum, latencyCount := m.latencySum, m.latencyCount
	cutsTotal, mapsTotal := m.cutsTotal, m.mapsTotal
	panicsTotal := m.panicsTotal
	batchBuckets := append([]int64(nil), m.batchBuckets...)
	batchSum, batchCount := m.batchSum, m.batchCount
	waitBuckets := append([]int64(nil), m.waitBuckets...)
	waitSum := m.waitSum
	flushes := make(map[infer.FlushReason]int64, len(m.flushesByCause))
	for r, c := range m.flushesByCause {
		flushes[r] = c
	}
	peakCutsMax := m.peakCutsMax
	dirtyBuckets := append([]int64(nil), m.dirtyBuckets...)
	dirtySum, dirtyCount := m.dirtySum, m.dirtyCount
	roundBuckets := append([]int64(nil), m.roundBuckets...)
	roundSum, roundCount := m.roundSum, m.roundCount
	gainBuckets := append([]int64(nil), m.gainBuckets...)
	gainSum, gainCount := m.gainSum, m.gainCount
	choiceBuilds := m.choiceBuilds
	choiceGraft, choiceSim, choiceProve := m.choiceGraftSec, m.choiceSimulateSec, m.choiceProveSec
	choiceProved, choiceRefuted, choiceBudgeted := m.choiceProved, m.choiceRefuted, m.choiceBudgetedOut
	m.mu.Unlock()

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].endpoint != rows[j].endpoint {
			return rows[i].endpoint < rows[j].endpoint
		}
		return rows[i].status < rows[j].status
	})

	fmt.Fprintln(w, "# HELP slap_requests_total Completed HTTP requests by endpoint and status.")
	fmt.Fprintln(w, "# TYPE slap_requests_total counter")
	for _, r := range rows {
		fmt.Fprintf(w, "slap_requests_total{endpoint=%q,code=\"%d\"} %d\n", r.endpoint, r.status, r.count)
	}

	fmt.Fprintln(w, "# HELP slap_request_seconds Request latency histogram.")
	fmt.Fprintln(w, "# TYPE slap_request_seconds histogram")
	var cum int64
	for i, ub := range latencyBuckets {
		cum += buckets[i]
		fmt.Fprintf(w, "slap_request_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += buckets[len(latencyBuckets)]
	fmt.Fprintf(w, "slap_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "slap_request_seconds_sum %g\n", latencySum)
	fmt.Fprintf(w, "slap_request_seconds_count %d\n", latencyCount)

	fmt.Fprintln(w, "# HELP slap_queue_depth Requests waiting for worker tokens.")
	fmt.Fprintln(w, "# TYPE slap_queue_depth gauge")
	fmt.Fprintf(w, "slap_queue_depth %d\n", m.sched.QueueDepth())

	fmt.Fprintln(w, "# HELP slap_inflight_workers Worker tokens currently borrowed.")
	fmt.Fprintln(w, "# TYPE slap_inflight_workers gauge")
	fmt.Fprintf(w, "slap_inflight_workers %d\n", m.sched.InFlight())

	fmt.Fprintln(w, "# HELP slap_worker_budget Global worker-token budget.")
	fmt.Fprintln(w, "# TYPE slap_worker_budget gauge")
	fmt.Fprintf(w, "slap_worker_budget %d\n", m.sched.Budget())

	fmt.Fprintln(w, "# HELP slap_cuts_considered_total Cuts exposed to Boolean matching across all mappings.")
	fmt.Fprintln(w, "# TYPE slap_cuts_considered_total counter")
	fmt.Fprintf(w, "slap_cuts_considered_total %d\n", cutsTotal)

	fmt.Fprintln(w, "# HELP slap_mappings_total Completed mapping runs.")
	fmt.Fprintln(w, "# TYPE slap_mappings_total counter")
	fmt.Fprintf(w, "slap_mappings_total %d\n", mapsTotal)

	fmt.Fprintln(w, "# HELP slap_cuts_per_second Mean cut throughput since start.")
	fmt.Fprintln(w, "# TYPE slap_cuts_per_second gauge")
	fmt.Fprintf(w, "slap_cuts_per_second %g\n", m.CutsPerSec())

	fmt.Fprintln(w, "# HELP slap_infer_batch_size Samples per coalesced inference flush.")
	fmt.Fprintln(w, "# TYPE slap_infer_batch_size histogram")
	var bcum int64
	for i, ub := range batchSizeBuckets {
		bcum += batchBuckets[i]
		fmt.Fprintf(w, "slap_infer_batch_size_bucket{le=\"%g\"} %d\n", ub, bcum)
	}
	bcum += batchBuckets[len(batchSizeBuckets)]
	fmt.Fprintf(w, "slap_infer_batch_size_bucket{le=\"+Inf\"} %d\n", bcum)
	fmt.Fprintf(w, "slap_infer_batch_size_sum %d\n", batchSum)
	fmt.Fprintf(w, "slap_infer_batch_size_count %d\n", batchCount)

	fmt.Fprintln(w, "# HELP slap_infer_queue_wait_seconds Wait of the oldest sample in each flushed batch.")
	fmt.Fprintln(w, "# TYPE slap_infer_queue_wait_seconds histogram")
	var wcum int64
	for i, ub := range queueWaitBuckets {
		wcum += waitBuckets[i]
		fmt.Fprintf(w, "slap_infer_queue_wait_seconds_bucket{le=\"%g\"} %d\n", ub, wcum)
	}
	wcum += waitBuckets[len(queueWaitBuckets)]
	fmt.Fprintf(w, "slap_infer_queue_wait_seconds_bucket{le=\"+Inf\"} %d\n", wcum)
	fmt.Fprintf(w, "slap_infer_queue_wait_seconds_sum %g\n", waitSum)
	fmt.Fprintf(w, "slap_infer_queue_wait_seconds_count %d\n", batchCount)

	fmt.Fprintln(w, "# HELP slap_infer_flushes_total Coalescer flushes by trigger.")
	fmt.Fprintln(w, "# TYPE slap_infer_flushes_total counter")
	for _, reason := range []infer.FlushReason{infer.FlushSize, infer.FlushDeadline, infer.FlushDrain} {
		fmt.Fprintf(w, "slap_infer_flushes_total{reason=%q} %d\n", string(reason), flushes[reason])
		delete(flushes, reason)
	}
	for reason, c := range flushes {
		fmt.Fprintf(w, "slap_infer_flushes_total{reason=%q} %d\n", string(reason), c)
	}

	fmt.Fprintln(w, "# HELP slap_infer_adaptive_wait_seconds Current coalescer flush deadline (EWMA-derived when adaptive).")
	fmt.Fprintln(w, "# TYPE slap_infer_adaptive_wait_seconds gauge")
	batchWait := 0.0
	if m.batchWait != nil {
		batchWait = m.batchWait()
	}
	fmt.Fprintf(w, "slap_infer_adaptive_wait_seconds %g\n", batchWait)

	var arena cuts.PoolStats
	if m.arenaStats != nil {
		arena = m.arenaStats()
	}
	fmt.Fprintln(w, "# HELP slap_arena_hits_total Mapping requests served by a cached cut arena.")
	fmt.Fprintln(w, "# TYPE slap_arena_hits_total counter")
	fmt.Fprintf(w, "slap_arena_hits_total %d\n", arena.Hits)

	fmt.Fprintln(w, "# HELP slap_arena_misses_total Mapping requests that built a fresh cut arena.")
	fmt.Fprintln(w, "# TYPE slap_arena_misses_total counter")
	fmt.Fprintf(w, "slap_arena_misses_total %d\n", arena.Misses)

	fmt.Fprintln(w, "# HELP slap_arena_cached Cut arenas currently parked in the cross-request pool.")
	fmt.Fprintln(w, "# TYPE slap_arena_cached gauge")
	fmt.Fprintf(w, "slap_arena_cached %d\n", arena.Cached)

	fmt.Fprintln(w, "# HELP slap_arena_evictions_total Cut arenas dropped from the pool to admit hotter graphs.")
	fmt.Fprintln(w, "# TYPE slap_arena_evictions_total counter")
	fmt.Fprintf(w, "slap_arena_evictions_total %d\n", arena.Evictions)

	var mc mapcache.Stats
	if m.mapCacheStats != nil {
		mc = m.mapCacheStats()
	}
	fmt.Fprintln(w, "# HELP slap_mapcache_hits Mapping requests answered from the result cache (exact repeats and singleflight followers).")
	fmt.Fprintln(w, "# TYPE slap_mapcache_hits counter")
	fmt.Fprintf(w, "slap_mapcache_hits %d\n", mc.Hits)

	fmt.Fprintln(w, "# HELP slap_mapcache_misses Mapping requests whose content address was not cached.")
	fmt.Fprintln(w, "# TYPE slap_mapcache_misses counter")
	fmt.Fprintf(w, "slap_mapcache_misses %d\n", mc.Misses)

	fmt.Fprintln(w, "# HELP slap_mapcache_eco_hits Cache misses served by delta-remapping against a cached relative.")
	fmt.Fprintln(w, "# TYPE slap_mapcache_eco_hits counter")
	fmt.Fprintf(w, "slap_mapcache_eco_hits %d\n", mc.ECOHits)

	fmt.Fprintln(w, "# HELP slap_mapcache_evictions Result-cache entries dropped to stay inside the byte budget.")
	fmt.Fprintln(w, "# TYPE slap_mapcache_evictions counter")
	fmt.Fprintf(w, "slap_mapcache_evictions %d\n", mc.Evictions)

	fmt.Fprintln(w, "# HELP slap_mapcache_bytes Estimated resident size of the result cache.")
	fmt.Fprintln(w, "# TYPE slap_mapcache_bytes gauge")
	fmt.Fprintf(w, "slap_mapcache_bytes %d\n", mc.Bytes)

	fmt.Fprintln(w, "# HELP slap_mapcache_entries Result-cache entries currently resident.")
	fmt.Fprintln(w, "# TYPE slap_mapcache_entries gauge")
	fmt.Fprintf(w, "slap_mapcache_entries %d\n", mc.Entries)

	fmt.Fprintln(w, "# HELP slap_eco_dirty_fraction Fraction of AND nodes re-processed per ECO delta remap.")
	fmt.Fprintln(w, "# TYPE slap_eco_dirty_fraction histogram")
	var dcum int64
	for i, ub := range dirtyFractionBuckets {
		dcum += dirtyBuckets[i]
		fmt.Fprintf(w, "slap_eco_dirty_fraction_bucket{le=\"%g\"} %d\n", ub, dcum)
	}
	dcum += dirtyBuckets[len(dirtyFractionBuckets)]
	fmt.Fprintf(w, "slap_eco_dirty_fraction_bucket{le=\"+Inf\"} %d\n", dcum)
	fmt.Fprintf(w, "slap_eco_dirty_fraction_sum %g\n", dirtySum)
	fmt.Fprintf(w, "slap_eco_dirty_fraction_count %d\n", dirtyCount)

	fmt.Fprintln(w, "# HELP slap_map_rounds Selection rounds executed per mapping (1 = classic single pass).")
	fmt.Fprintln(w, "# TYPE slap_map_rounds histogram")
	var rcum int64
	for i, ub := range roundsBuckets {
		rcum += roundBuckets[i]
		fmt.Fprintf(w, "slap_map_rounds_bucket{le=\"%g\"} %d\n", ub, rcum)
	}
	rcum += roundBuckets[len(roundsBuckets)]
	fmt.Fprintf(w, "slap_map_rounds_bucket{le=\"+Inf\"} %d\n", rcum)
	fmt.Fprintf(w, "slap_map_rounds_sum %d\n", roundSum)
	fmt.Fprintf(w, "slap_map_rounds_count %d\n", roundCount)

	fmt.Fprintln(w, "# HELP slap_map_round_area_gain Relative area improvement of the final recovery round over the round-1 cover.")
	fmt.Fprintln(w, "# TYPE slap_map_round_area_gain histogram")
	var gcum int64
	for i, ub := range roundGainBuckets {
		gcum += gainBuckets[i]
		fmt.Fprintf(w, "slap_map_round_area_gain_bucket{le=\"%g\"} %d\n", ub, gcum)
	}
	gcum += gainBuckets[len(roundGainBuckets)]
	fmt.Fprintf(w, "slap_map_round_area_gain_bucket{le=\"+Inf\"} %d\n", gcum)
	fmt.Fprintf(w, "slap_map_round_area_gain_sum %g\n", gainSum)
	fmt.Fprintf(w, "slap_map_round_area_gain_count %d\n", gainCount)

	fmt.Fprintln(w, "# HELP slap_choice_builds_total Fresh choice-view builds (cached checkouts excluded).")
	fmt.Fprintln(w, "# TYPE slap_choice_builds_total counter")
	fmt.Fprintf(w, "slap_choice_builds_total %d\n", choiceBuilds)

	fmt.Fprintln(w, "# HELP slap_choice_build_seconds Wall time spent in each choice-view build phase, summed across fresh builds.")
	fmt.Fprintln(w, "# TYPE slap_choice_build_seconds counter")
	fmt.Fprintf(w, "slap_choice_build_seconds{phase=\"graft\"} %g\n", choiceGraft)
	fmt.Fprintf(w, "slap_choice_build_seconds{phase=\"simulate\"} %g\n", choiceSim)
	fmt.Fprintf(w, "slap_choice_build_seconds{phase=\"prove\"} %g\n", choiceProve)

	fmt.Fprintln(w, "# HELP slap_choice_proofs_total Choice-prover certificate outcomes across fresh builds.")
	fmt.Fprintln(w, "# TYPE slap_choice_proofs_total counter")
	fmt.Fprintf(w, "slap_choice_proofs_total{outcome=\"proved\"} %d\n", choiceProved)
	fmt.Fprintf(w, "slap_choice_proofs_total{outcome=\"refuted\"} %d\n", choiceRefuted)
	fmt.Fprintf(w, "slap_choice_proofs_total{outcome=\"budget_exhausted\"} %d\n", choiceBudgeted)

	var cc choice.CacheStats
	if m.choiceCacheStats != nil {
		cc = m.choiceCacheStats()
	}
	fmt.Fprintln(w, "# HELP slap_choice_viewcache_hits Choice-view checkouts served from the cache (exact repeats and singleflight followers).")
	fmt.Fprintln(w, "# TYPE slap_choice_viewcache_hits counter")
	fmt.Fprintf(w, "slap_choice_viewcache_hits %d\n", cc.Hits)

	fmt.Fprintln(w, "# HELP slap_choice_viewcache_misses Choice-view checkouts that built a fresh view.")
	fmt.Fprintln(w, "# TYPE slap_choice_viewcache_misses counter")
	fmt.Fprintf(w, "slap_choice_viewcache_misses %d\n", cc.Misses)

	fmt.Fprintln(w, "# HELP slap_choice_viewcache_bytes Estimated resident size of cached choice views.")
	fmt.Fprintln(w, "# TYPE slap_choice_viewcache_bytes gauge")
	fmt.Fprintf(w, "slap_choice_viewcache_bytes %d\n", cc.Bytes)

	fmt.Fprintln(w, "# HELP slap_choice_viewcache_evictions Cached choice views dropped to stay inside the byte budget.")
	fmt.Fprintln(w, "# TYPE slap_choice_viewcache_evictions counter")
	fmt.Fprintf(w, "slap_choice_viewcache_evictions %d\n", cc.Evictions)

	fmt.Fprintln(w, "# HELP slap_choice_viewcache_views Choice views currently resident in the cache.")
	fmt.Fprintln(w, "# TYPE slap_choice_viewcache_views gauge")
	fmt.Fprintf(w, "slap_choice_viewcache_views %d\n", cc.Views)

	fmt.Fprintln(w, "# HELP slap_peak_live_cuts Largest simultaneously-live cut count any mapping reported.")
	fmt.Fprintln(w, "# TYPE slap_peak_live_cuts gauge")
	fmt.Fprintf(w, "slap_peak_live_cuts %d\n", peakCutsMax)

	fmt.Fprintln(w, "# HELP slap_panics_total Handler and worker panics recovered by the service.")
	fmt.Fprintln(w, "# TYPE slap_panics_total counter")
	fmt.Fprintf(w, "slap_panics_total %d\n", panicsTotal)

	degradedReasons := 0
	if m.degraded != nil {
		degradedReasons = len(m.degraded())
	}
	fmt.Fprintln(w, "# HELP slap_degraded Number of active degradation reasons (0 = healthy).")
	fmt.Fprintln(w, "# TYPE slap_degraded gauge")
	fmt.Fprintf(w, "slap_degraded %d\n", degradedReasons)

	fmt.Fprintln(w, "# HELP slap_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE slap_uptime_seconds gauge")
	fmt.Fprintf(w, "slap_uptime_seconds %g\n", time.Since(m.start).Seconds())
}

// snapshot builds the expvar map: counters plus live gauges.
func (m *Metrics) snapshot() any {
	m.mu.Lock()
	total := int64(0)
	byEndpoint := make(map[string]int64, len(m.requests))
	for ep, byStatus := range m.requests {
		for _, c := range byStatus {
			byEndpoint[ep] += c
			total += c
		}
	}
	cutsTotal := m.cutsTotal
	mapsTotal := m.mapsTotal
	panicsTotal := m.panicsTotal
	batchCount, batchSum := m.batchCount, m.batchSum
	peakCutsMax := m.peakCutsMax
	m.mu.Unlock()
	var arena cuts.PoolStats
	if m.arenaStats != nil {
		arena = m.arenaStats()
	}
	var mc mapcache.Stats
	if m.mapCacheStats != nil {
		mc = m.mapCacheStats()
	}
	var cc choice.CacheStats
	if m.choiceCacheStats != nil {
		cc = m.choiceCacheStats()
	}
	return map[string]any{
		"choice_viewcache_hits":   cc.Hits,
		"choice_viewcache_misses": cc.Misses,
		"choice_viewcache_bytes":  cc.Bytes,
		"choice_viewcache_views":  cc.Views,
		"arena_hits":              arena.Hits,
		"arena_misses":            arena.Misses,
		"arena_cached":            arena.Cached,
		"arena_evictions":         arena.Evictions,
		"mapcache_hits":           mc.Hits,
		"mapcache_misses":         mc.Misses,
		"mapcache_eco_hits":       mc.ECOHits,
		"mapcache_evictions":      mc.Evictions,
		"mapcache_bytes":          mc.Bytes,
		"mapcache_entries":        mc.Entries,
		"peak_live_cuts":          peakCutsMax,
		"requests_total":          total,
		"requests_by_endpoint":    byEndpoint,
		"cuts_considered":         cutsTotal,
		"mappings_total":          mapsTotal,
		"panics_total":            panicsTotal,
		"infer_flushes":           batchCount,
		"infer_batched":           batchSum,
		"cuts_per_second":         m.CutsPerSec(),
		"queue_depth":             m.sched.QueueDepth(),
		"inflight_workers":        m.sched.InFlight(),
		"worker_budget":           m.sched.Budget(),
		"uptime_seconds":          time.Since(m.start).Seconds(),
	}
}

var publishOnce sync.Once

// PublishExpvar exposes this Metrics as the process-wide "slap" expvar.
// expvar names are global to the process, so only the first server to call
// this wins; tests that build many servers simply skip it.
func (m *Metrics) PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("slap", expvar.Func(m.snapshot))
	})
}
