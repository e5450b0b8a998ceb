// Command slap-coordinator fronts a fleet of slap-serve workers: it routes
// POST /v1/map and /v1/classify by consistent hashing on the design's
// structural hash — so resubmissions and ECO edits land on the worker
// whose result cache and choice views are already warm — probes worker
// health, retries dead workers on the next ring replica, sheds load with
// 503 when every live worker is at its in-flight cap, and fans dataset
// sweeps out as checksummed shards merged centrally, byte-identical to a
// single-process run.
//
// Usage:
//
//	slap-coordinator -addr :8350 -worker a=http://10.0.0.5:8351 -worker b=http://10.0.0.6:8351
//	slap-coordinator -addr :8350            # empty fleet; workers join with slap-serve -coordinator
//	curl --data-binary @design.aag 'localhost:8350/v1/map?policy=default'
//	curl localhost:8350/healthz ; curl localhost:8350/metrics
//
// Endpoints: POST /v1/map, POST /v1/classify (proxied with affinity),
// POST /v1/workers/register, DELETE /v1/workers/{name}, GET /v1/workers,
// POST /v1/jobs/dataset (202 + id), GET /v1/jobs/{id}, GET /healthz,
// GET /metrics.
//
// With -journal set, membership changes and dataset jobs are logged to an
// append-only checksummed file; a coordinator killed mid-sweep and
// restarted with the same -journal re-adopts its self-registered workers
// and resumes the sweep where it left off, producing a byte-identical
// dataset. Per-worker circuit breakers (-breaker-threshold,
// -breaker-cooldown) trip on consecutive request failures, and hedged
// reads race a second replica when the hash-affine worker is saturated or
// breaker-open.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slap/internal/fleet"
)

// workerFlags collects repeatable -worker flags of the form "name=url" or
// bare "url" (name derived from host:port).
type workerFlags []fleet.StaticWorker

func (w *workerFlags) String() string { return fmt.Sprint(*w) }

func (w *workerFlags) Set(v string) error {
	name, u := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, u = v[:i], v[i+1:]
	}
	if u == "" {
		return fmt.Errorf("empty URL in %q (want name=url or url)", v)
	}
	*w = append(*w, fleet.StaticWorker{Name: name, URL: u})
	return nil
}

func main() {
	var (
		workers workerFlags

		addr          = flag.String("addr", ":8350", "listen address")
		vnodes        = flag.Int("vnodes", fleet.DefaultVNodes, "virtual nodes per worker on the consistent-hash ring")
		probeInterval = flag.Duration("probe-interval", fleet.DefaultProbeInterval, "worker /healthz probe cadence")
		probeTimeout  = flag.Duration("probe-timeout", fleet.DefaultProbeTimeout, "per-probe timeout")
		deadAfter     = flag.Int("dead-after", fleet.DefaultDeadAfter, "consecutive probe/proxy failures before a worker is declared dead")
		attempts      = flag.Int("attempts", fleet.DefaultMaxAttempts, "workers one request may be tried on before answering 502")
		inflight      = flag.Int64("inflight", fleet.DefaultInflightPerWorker, "in-flight request cap per worker; a saturated fleet sheds with 503 (negative = uncapped)")
		maxBody       = flag.Int64("max-body", fleet.DefaultMaxBodyBytes, "request body size limit in bytes")
		jobsDir       = flag.String("jobs-dir", "", "directory for fleet dataset-job shard files (default: under the system temp dir)")
		shardConc     = flag.Int("shard-concurrency", 0, "concurrently outstanding dataset shards per job (0 = 2x worker count)")
		drainWait     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		journal       = flag.String("journal", "", "append-only journal file for crash-safe membership and dataset jobs; restarting with the same path replays it and resumes half-finished sweeps")
		reqTimeout    = flag.Duration("request-timeout", 0, "server-side ceiling for one proxied request including retries and hedges; clients lower it per request with ?timeout_ms= (0 = no ceiling)")
		brkThreshold  = flag.Int("breaker-threshold", fleet.DefaultBreakerThreshold, "consecutive request failures that trip a worker's circuit breaker open")
		brkCooldown   = flag.Duration("breaker-cooldown", fleet.DefaultBreakerCooldown, "open → half-open cooldown before a breaker admits a trial request")
	)
	flag.Var(&workers, "worker", "static fleet member, as name=url or url (repeatable); more can join at runtime via slap-serve -coordinator")
	flag.Parse()

	cfg := fleet.Config{
		Workers:           workers,
		VNodes:            *vnodes,
		ProbeInterval:     *probeInterval,
		ProbeTimeout:      *probeTimeout,
		DeadAfter:         *deadAfter,
		MaxAttempts:       *attempts,
		InflightPerWorker: *inflight,
		MaxBodyBytes:      *maxBody,
		JobsDir:           *jobsDir,
		ShardConcurrency:  *shardConc,
		JournalPath:       *journal,
		RequestTimeout:    *reqTimeout,
		BreakerThreshold:  *brkThreshold,
		BreakerCooldown:   *brkCooldown,
	}
	if err := run(*addr, cfg, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "slap-coordinator:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg fleet.Config, drainWait time.Duration) error {
	c, err := fleet.New(cfg)
	if err != nil {
		return err
	}

	hs := &http.Server{
		Addr:              addr,
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("slap-coordinator listening on %s (%d static workers, %d vnodes each)",
			addr, len(cfg.Workers), cfg.VNodes)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received: draining (deadline %s)", drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	err = hs.Shutdown(shutdownCtx) // waits for in-flight proxies
	c.Close()                      // then stop probes and cancel fleet jobs
	if err != nil && err != context.DeadlineExceeded {
		return err
	}
	log.Printf("drained, bye")
	return nil
}
