// Command slap-serve runs the long-running SLAP mapping service: an HTTP
// front end over the same flow as the slap CLI, with a model/library
// registry loaded once at startup (hot-addable at runtime), a global
// worker budget shared by all requests, and Prometheus/expvar metrics.
//
// Usage:
//
//	slap-serve -addr :8351
//	slap-serve -model prod=model.gob -model exp=candidate.gob -lib my.lib
//	curl --data-binary @design.aag 'localhost:8351/v1/map?policy=default'
//	curl --data-binary @design.aag 'localhost:8351/v1/map?policy=slap&model=prod'
//	curl localhost:8351/healthz ; curl localhost:8351/metrics
//
// Endpoints: POST /v1/map, POST /v1/classify, GET /healthz, GET /metrics,
// GET /v1/registry, POST /v1/registry/{models,libraries}, GET /debug/vars,
// plus background dataset jobs that survive client disconnects:
// POST /v1/jobs/dataset (202 + id), GET /v1/jobs, GET /v1/jobs/{id},
// DELETE /v1/jobs/{id}.
// On SIGINT/SIGTERM the server drains gracefully: listeners close, queued
// requests shed with 503, and in-flight mappings run to completion.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"slap/internal/chaos"
	"slap/internal/choice"
	"slap/internal/infer"
	"slap/internal/server"
)

// choiceCacheBytes converts the -choice-cache MiB flag to the Config byte
// convention: 0 keeps the default budget, negative disables the cache.
func choiceCacheBytes(mib int64) int64 {
	if mib < 0 {
		return -1
	}
	return mib << 20
}

// artifactFlags collects repeatable -model / -lib flags of the form
// "name=path" or bare "path" (name derived from the file name).
type artifactFlags []struct{ name, path string }

func (a *artifactFlags) String() string { return fmt.Sprint(*a) }

func (a *artifactFlags) Set(v string) error {
	name, path := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	if path == "" {
		return fmt.Errorf("empty path in %q (want name=path or path)", v)
	}
	*a = append(*a, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8351", "listen address")
		models    artifactFlags
		libs      artifactFlags
		workers   = flag.Int("workers", 0, "global worker budget shared by all requests (0 = all CPU cores)")
		queueCap  = flag.Int("queue", server.DefaultQueueCap, "bounded request queue length (overload sheds with 503)")
		timeout   = flag.Duration("timeout", server.DefaultRequestTimeout, "default per-request timeout")
		maxBody   = flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		jobsDir   = flag.String("jobs-dir", "", "directory for dataset-job shard checkpoints (default: under the system temp dir)")
		jobKeep   = flag.Duration("job-retention", server.DefaultJobRetention, "how long finished dataset jobs (and their shard directories) are kept; negative keeps them forever")
		batch     = flag.Int("batch", infer.DefaultMaxBatch, "largest batched-inference forward pass for slap/classify requests (negative = per-sample inference)")
		arenas    = flag.Int("arena-cache", 0, "cut arenas cached across requests for same-graph reuse (0 = default, negative disables)")
		resCache  = flag.Int64("result-cache", 256, "mapping result cache budget in MiB: exact resubmissions are answered from the cache in O(1) (0 disables)")
		eco       = flag.Bool("eco", true, "delta-remap edited designs against the nearest cached relative, re-running only the dirty cone (needs -result-cache)")

		choiceWorkers = flag.Int("choice-workers", 0, "parallel choice-view proving workers for choices=1 requests (0 = all CPU cores; the built view is identical for any value)")
		choiceBudget  = flag.Int64("choice-budget", 0, "per-pair SAT conflict budget for choice-view proofs (0 = default)")
		choiceCache   = flag.Int64("choice-cache", 0, "choice view cache budget in MiB: repeat choices=1 submissions skip view construction (0 = default, negative disables)")

		// Fleet membership: with -coordinator and -advertise set, the worker
		// self-registers (and re-registers as a heartbeat) so a
		// slap-coordinator routes hash-affine traffic to it.
		name        = flag.String("name", "", "worker name stamped on responses and used for fleet routing (default: the advertise URL's host:port)")
		advertise   = flag.String("advertise", "", "URL under which a fleet coordinator can reach this worker (e.g. http://10.0.0.5:8351)")
		coordinator = flag.String("coordinator", "", "coordinator base URL to self-register with (requires -advertise)")
		heartbeat   = flag.Duration("heartbeat", 5*time.Second, "re-registration cadence while -coordinator is set")

		// Fault injection (testing only): a deterministic chaos schedule
		// wrapped around the whole handler, e.g.
		// -chaos 'kind=kill,path=/v1/map,every=3;kind=latency,path=/v1/map,delay=50ms'
		chaosSpec = flag.String("chaos", "", "deterministic fault-injection schedule (semicolon-separated rules of kind=kill|hang|latency|error|corrupt with path=,delay=,after=,every=,count=,prob=); testing only")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for probabilistic chaos rules; same seed + same request order = same faults")
	)
	flag.Var(&models, "model", "model to preload, as name=path or path (repeatable)")
	flag.Var(&libs, "lib", "genlib-like library to preload, as name=path or path (repeatable)")
	flag.Parse()

	if *coordinator != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "slap-serve: -coordinator requires -advertise")
		os.Exit(2)
	}
	workerName := *name
	if workerName == "" && *advertise != "" {
		if u, err := url.Parse(*advertise); err == nil {
			workerName = u.Host
		}
	}

	cfg := server.Config{
		WorkerName:       workerName,
		WorkerBudget:     *workers,
		QueueCap:         *queueCap,
		DefaultTimeout:   *timeout,
		MaxBodyBytes:     *maxBody,
		JobsDir:          *jobsDir,
		JobRetention:     *jobKeep,
		MaxBatch:         *batch,
		ArenaCache:       *arenas,
		ResultCacheBytes: *resCache << 20,
		ECO:              *eco,
		ChoiceOptions:    choice.Options{Workers: *choiceWorkers, ProofConflicts: *choiceBudget},
		ChoiceCacheBytes: choiceCacheBytes(*choiceCache),
	}
	fleet := fleetConfig{name: workerName, advertise: *advertise, coordinator: *coordinator, heartbeat: *heartbeat}

	var sched *chaos.Schedule
	if *chaosSpec != "" {
		rules, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slap-serve: -chaos:", err)
			os.Exit(2)
		}
		sched = chaos.New(*chaosSeed, rules...)
		log.Printf("CHAOS ENABLED: %d fault rule(s), seed %d — testing only", len(rules), *chaosSeed)
	}

	if err := run(*addr, models, libs, cfg, fleet, sched, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "slap-serve:", err)
		os.Exit(1)
	}
}

// fleetConfig carries the worker's fleet-membership flags.
type fleetConfig struct {
	name        string
	advertise   string
	coordinator string
	heartbeat   time.Duration
}

// register performs one registration round trip against the coordinator.
func (f fleetConfig) register(ctx context.Context) error {
	body, err := json.Marshal(map[string]string{"name": f.name, "url": f.advertise})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(f.coordinator, "/")+"/v1/workers/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("coordinator answered %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return nil
}

// registerLoop keeps the worker registered with its coordinator: the
// initial registration announces the worker, every later round doubles as
// a liveness heartbeat (re-registering revives a worker the coordinator
// had declared dead). Registration failures only log — the worker serves
// direct traffic regardless.
func (f fleetConfig) registerLoop(ctx context.Context) {
	hb := f.heartbeat
	if hb <= 0 {
		hb = 5 * time.Second
	}
	registered := false
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		if err := f.register(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Printf("fleet registration with %s failed (will retry): %v", f.coordinator, err)
			registered = false
		} else if !registered {
			log.Printf("registered with coordinator %s as %q (%s)", f.coordinator, f.name, f.advertise)
			registered = true
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func run(addr string, models, libs artifactFlags, cfg server.Config, fleet fleetConfig, sched *chaos.Schedule, drainWait time.Duration) error {
	reg := server.NewRegistry()
	for _, m := range models {
		if err := reg.AddModelFile(m.name, m.path); err != nil {
			return err
		}
	}
	for _, l := range libs {
		if err := reg.AddLibraryFile(l.name, l.path); err != nil {
			return err
		}
	}

	cfg.Registry = reg
	s := server.New(cfg)
	s.Metrics().PublishExpvar()

	handler := http.Handler(s.Handler())
	if sched != nil {
		handler = sched.Middleware(handler)
	}
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if fleet.coordinator != "" {
		go fleet.registerLoop(ctx)
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("slap-serve listening on %s (budget %d workers, queue %d, %d models, %d libraries)",
			addr, s.Scheduler().Budget(), cfg.QueueCap, len(reg.Models()), len(reg.Libraries()))
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
	err := hs.Shutdown(shutdownCtx) // waits for in-flight requests
	s.Close()                       // then fail-fast any queued acquires
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("drained, bye")
	return nil
}
