// Command bench is the repository benchmark: it builds slap-serve and
// slap-train from source, and for each workload trains the pinned model,
// starts its own slap-serve on loopback, drives it over the HTTP API with
// inputs generated from --seed, checks every answer independently, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ones).
// The last line of standard output is one JSON object.
//
// Usage, from the repository root (bench/README.md has the details):
//
//	bash bench/run.sh --workload slap_asic_cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1 --out run.json     # every workload
//	bash bench/run.sh -compare base.json new.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"slap/internal/nn"
)

// options are the command-line settings of one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	root     string // repository root
	build    string // build and scratch directory
	out      string
}

func main() {
	var o options
	var trace int
	var scale string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty = all)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "measurement window per workload in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run that prints the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or smoke (two designs per workload, twenty replay requests)")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.build, "build", ".bench_build", "directory for binaries and scratch files")
	flag.StringVar(&o.out, "out", "", "append this run to a JSON report file")
	flag.BoolVar(&compare, "compare", false, "compare two report files: -compare base.json new.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, filepath.Join(o.root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 || scale != "full" && scale != "smoke" {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, -scale full or smoke")
		os.Exit(2)
	}
	o.trace, o.smoke = trace == 1, scale == "smoke"

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if o.out != "" {
		if err := appendReport(o.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadReport is the outcome of one workload.
type workloadReport struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies where and on what a run was measured.
type stamp struct {
	CPU       string  `json:"cpu"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Scale     string  `json:"scale"`
	Time      string  `json:"time"`
}

// report is one invocation's outcome.
type report struct {
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadReport `json:"workloads"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// run builds the binaries and runs the selected workloads.
func run(ctx context.Context, o options) (*report, error) {
	build, err := filepath.Abs(o.build)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "bin")
	if err := buildBinaries(ctx, o.root, bin); err != nil {
		return nil, err
	}
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return nil, err
		}
		selected = []*workload{w}
	}
	rep := &report{Stamp: newStamp(o)}
	for _, w := range selected {
		wr, err := runWorkload(ctx, o, w, bin, build)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, *wr)
	}
	return rep, nil
}

// maxFailures caps the failure messages kept per workload.
const maxFailures = 10

// runWorkload sets the workload up (three times, keeping the last server;
// once for traced and smoke runs), measures it for the window, checks every
// answer, and computes its metrics.
func runWorkload(ctx context.Context, o options, w *workload, bin, build string) (*workloadReport, error) {
	designs, err := w.designs(o.smoke)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	wr := &workloadReport{Workload: w.name, Trace: o.trace}
	fail := func(err error) {
		wr.Failed++
		if len(wr.Failures) < maxFailures {
			wr.Failures = append(wr.Failures, err.Error())
		}
	}

	setups := 3
	if o.trace || o.smoke {
		setups = 1
	}
	var setupS []float64
	var srv *server
	var model []byte
	for i := range setups {
		t0 := time.Now()
		s, mb, err := setUp(ctx, bin, work, w.flags)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		wr.Attempted++
		if model != nil && !bytes.Equal(mb, model) {
			fail(errors.New("slap-train produced a different model on a repeated set-up"))
		}
		model = mb
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	c := newClient(srv.base, w.clients())
	defer c.close()
	if err := warmUp(ctx, c, w); err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	var trace []*request
	if w.replay {
		n := int(replayPerSecond * o.seconds)
		if o.smoke {
			n = 20
		}
		trace = replayTrace(designs, o.seed, n)
	}
	before, err := srv.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var samples []sample
	if w.replay {
		samples = runReplay(ctx, c, trace, window)
	} else {
		samples = runCold(ctx, c, w, designs, o.seed, window)
	}
	wall := time.Since(t0)
	after, err := srv.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	decode(samples)
	var qor []sample
	if !o.trace {
		qor = qorPass(ctx, c, w, designs)
		decode(qor)
	}
	srv.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, s := range append(samples, qor...) {
		wr.Attempted++
		if err := checkSample(s, o.seed); err != nil {
			fail(err)
		}
	}
	if o.trace {
		m, err := nn.Load(bytes.NewReader(model))
		if err != nil {
			return nil, fmt.Errorf("loading the trained model: %w", err)
		}
		refs := refInputs(samples)
		layers, failures, err := traceReplay(ctx, w, m, refs, o.seed)
		if err != nil {
			return nil, err
		}
		wr.Attempted += len(refs)
		for _, f := range failures {
			fail(errors.New(f))
		}
		wr.Metrics = perLayerMetrics(layers, len(refs), samples, before, after)
	} else {
		wr.Metrics = endToEndMetrics(setupS, samples, qor, wall, before, after)
	}
	// A metric that could not be computed is left out of the map, and the
	// run fails: its report then never enters a comparison.
	defs := slices.Concat(endToEndDefs, infoDefs)
	if o.trace {
		defs = perLayerDefs
	}
	for _, d := range defs {
		if _, ok := wr.Metrics[d.name]; !ok {
			wr.Attempted++
			fail(fmt.Errorf("metric %s could not be computed", d.name))
		}
	}
	return wr, nil
}

// printReport prints a table per workload, then the result line: one JSON
// object with the keys correct, attempted, failed and metrics. With several
// workloads the metric names are prefixed with "<workload>.".
func printReport(f io.Writer, rep *report) {
	type result struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	res := result{Correct: rep.correct(), Metrics: map[string]metric{}}
	for _, w := range rep.Workloads {
		kind := "end-to-end"
		if w.Trace {
			kind = "per-layer"
		}
		fmt.Fprintf(f, "%s (%s): %d attempted, %d failed\n", w.Workload, kind, w.Attempted, w.Failed)
		for _, msg := range w.Failures {
			fmt.Fprintf(f, "  FAILED: %s\n", msg)
		}
		names := make([]string, 0, len(w.Metrics))
		for n := range w.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			m := w.Metrics[n]
			if isInfo(n) {
				fmt.Fprintf(f, "  %-26s %14.6g %-9s n=%d (unresolved, not on the result line)\n", n, m.Value, m.Unit, m.Samples)
				continue
			}
			fmt.Fprintf(f, "  %-26s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, m.Samples)
			key := n
			if len(rep.Workloads) > 1 {
				key = w.Workload + "." + n
			}
			res.Metrics[key] = metric{Value: m.Value, Unit: m.Unit}
		}
		res.Attempted += w.Attempted
		res.Failed += w.Failed
	}
	line, _ := json.Marshal(res) // plain structs of finite floats always marshal
	fmt.Fprintln(f, string(line))
}
