package fleet

import (
	"time"

	"slap/internal/metrics"
)

// fleetMetrics holds the coordinator's series on one registry, which
// serves GET /metrics.
type fleetMetrics struct {
	*metrics.Registry

	retries        *metrics.Counter
	shed           *metrics.Counter
	deaths         *metrics.Counter
	hedges         *metrics.Counter
	hedgeWins      metrics.Vec[metrics.Counter] // by arm
	breakerOpens   *metrics.Counter
	journalReplays *metrics.Counter
	routed         metrics.Vec[metrics.Counter] // by worker
	shards         metrics.Vec[metrics.Counter] // by result
}

// newMetrics declares the coordinator's series in exposition order. The
// worker-state and per-worker gauges read c's membership at scrape time.
func newMetrics(c *Coordinator) *fleetMetrics {
	r := metrics.New()
	m := &fleetMetrics{Registry: r}
	r.GaugeVecFunc("slap_fleet_workers", "Fleet workers by health state.", []string{"state"}, func(emit func(float64, ...string)) {
		states := c.workerStates()
		for _, st := range []WorkerState{StateUp, StateDegraded, StateDead} {
			emit(float64(states[st]), st.String())
		}
	})
	m.retries = r.Counter("slap_fleet_retries_total", "Requests and dataset shards rerouted to another worker after a failure.")
	m.shed = r.Counter("slap_fleet_shed_total", "Requests answered 503 because the whole fleet was saturated or dead.")
	m.deaths = r.Counter("slap_fleet_worker_deaths_total", "Workers declared dead after consecutive failures.")
	m.hedges = r.Counter("slap_fleet_hedges_total", "Reads raced across two replicas because the affine worker was saturated or breaker-open.")
	m.hedgeWins = r.CounterVec("slap_fleet_hedge_wins_total", "Hedged reads by which arm answered first.", "arm")
	m.breakerOpens = r.Counter("slap_fleet_breaker_opens_total", "Circuit-breaker trips (closed or half-open to open).")
	m.journalReplays = r.Counter("slap_fleet_journal_replays_total", "Journal records replayed at coordinator startup.")
	m.routed = r.CounterVec("slap_fleet_routed_requests_total", "Requests relayed to each worker.", "worker")
	m.shards = r.CounterVec("slap_fleet_shards_total", "Dataset shards by final outcome across fleet sweeps.", "result")

	// Per-worker routing-quality gauges: cache warmth as of the last
	// successful probe, plus current in-flight load.
	perWorker := func(name, help string, value func(WorkerStatus) float64) {
		r.GaugeVecFunc(name, help, []string{"worker"}, func(emit func(float64, ...string)) {
			for _, s := range c.workerStatuses() {
				emit(value(s), s.Name)
			}
		})
	}
	perWorker("slap_fleet_worker_inflight", "Proxied requests currently in flight per worker.", func(s WorkerStatus) float64 { return float64(s.Inflight) })
	perWorker("slap_fleet_worker_cache_entries", "Mapping results resident in each worker's result cache (last probe).", func(s WorkerStatus) float64 { return float64(s.CacheEntries) })
	perWorker("slap_fleet_worker_warm_views", "Choice views resident in each worker's view cache (last probe).", func(s WorkerStatus) float64 { return float64(s.WarmViews) })
	perWorker("slap_fleet_breaker_state", "Per-worker circuit breaker (0 closed, 1 half-open, 2 open).", func(s WorkerStatus) float64 { return float64(breakerStateValue(s.Breaker)) })

	r.GaugeFunc("slap_fleet_uptime_seconds", "Seconds since the coordinator started.", func() float64 { return time.Since(c.start).Seconds() })
	return m
}

// breakerStateValue maps a breaker state name to its gauge value.
func breakerStateValue(s string) int {
	switch s {
	case "half-open":
		return 1
	case "open":
		return 2
	default:
		return 0
	}
}
