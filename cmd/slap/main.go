// Command slap maps a circuit onto the standard-cell library under a chosen
// cut policy and prints the resulting QoR.
//
// Usage:
//
//	slap -circuit adder -policy default
//	slap -circuit AES -policy slap -model model.gob
//	slap -aag design.aag -policy unlimited -verify
//	slap -aag edited.aag -baseline original.aag -policy default
//	slap -circuit adder -policy slap -model model.gob -rounds 4 -choices
//
// Circuits are either built-in Table II generators (-circuit, sized by
// -profile) or ASCII AIGER files (-aag). Policies: default (vanilla ABC
// heuristic), unlimited (all cuts), shuffle (random, -seed), slap (ML
// filtering, requires -model).
//
// -rounds N runs the multi-round engine: round 1 is the classic
// delay-optimal pass, later rounds re-select the cover by area flow under
// required times frozen from the round-1 delay (scaled by -delay-factor),
// and the final round adds an exact-area refinement. -choices additionally
// maps over a structural-choice view, so Boolean matching sees the union of
// each node's rewrite variants.
//
// -baseline runs an offline ECO: the baseline circuit is mapped first
// (capturing a cut snapshot), then the subject graph is delta-remapped
// against it — only the edited cone's cuts are re-enumerated (and, for
// slap, re-classified) while the result stays byte-identical to a cold map.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/experiments"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/mapper"
	"slap/internal/nn"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "built-in circuit name (Table II row, e.g. adder, bar, AES)")
		aagPath     = flag.String("aag", "", "map an ASCII AIGER (.aag) or BLIF (.blif) file instead of a built-in circuit; \"-\" reads from stdin (format auto-detected)")
		baseline    = flag.String("baseline", "", "offline ECO: map this circuit file first, then delta-remap the subject against it (policies default, unlimited, slap)")
		profileName = flag.String("profile", "fast", "design size profile: fast or paper")
		policyName  = flag.String("policy", "default", "cut policy: default, unlimited, shuffle, slap")
		modelPath   = flag.String("model", "", "trained model file (required for -policy slap)")
		libPath     = flag.String("lib", "", "genlib-like library file (default: built-in asap7ish)")
		seed        = flag.Int64("seed", 1, "seed for the shuffle policy")
		limit       = flag.Int("limit", 0, "per-node cut budget for default/shuffle policies (0 = 250)")
		workers     = flag.Int("workers", 0, "cut-enumeration/inference workers (0 = all CPU cores, 1 = sequential)")
		batch       = flag.Int("batch", 256, "largest batched-inference forward pass for -policy slap (negative = per-sample inference)")
		verify      = flag.Bool("verify", true, "check mapped netlist equivalence against the AIG")
		listNames   = flag.Bool("list", false, "list built-in circuit names and exit")
		showCells   = flag.Bool("cells", false, "print the cell-type histogram")
		verilogOut  = flag.String("verilog", "", "write the mapped netlist as structural Verilog to this file")
		blifOut     = flag.String("blif", "", "write the mapped netlist as BLIF to this file")
		report      = flag.Bool("report", false, "print the critical-path timing report")
		rounds      = flag.Int("rounds", 1, "selection rounds: 1 = classic single pass, N > 1 adds area-recovery rounds under the round-1 delay (exact-area last)")
		delayFactor = flag.Float64("delay-factor", 1.0, "required-time slack for recovery rounds, as a multiple of the round-1 delay (<= 1 pins the round-1 optimum)")
		choices     = flag.Bool("choices", false, "map over a structural-choice view: matching sees the union of each node's rewrite variants")

		choiceWorkers = flag.Int("choice-workers", 0, "parallel choice-view proving workers (0 = all CPU cores; the built view is identical for any value)")
		choiceBudget  = flag.Int64("choice-budget", 0, "per-pair SAT conflict budget for choice-view proofs (0 = default)")
	)
	flag.Parse()

	if err := run(runConfig{
		circuit: *circuitName, aag: *aagPath, baseline: *baseline, profile: *profileName,
		policy: *policyName, model: *modelPath, lib: *libPath,
		seed: *seed, limit: *limit, workers: *workers, batch: *batch,
		verify: *verify, list: *listNames,
		cells: *showCells, verilog: *verilogOut, blif: *blifOut, report: *report,
		rounds: *rounds, delayFactor: *delayFactor, choices: *choices,
		choiceWorkers: *choiceWorkers, choiceBudget: *choiceBudget,
		stdin: os.Stdin,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "slap:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed command-line options.
type runConfig struct {
	circuit, aag, baseline, profile, policy, model, lib string
	seed                                                int64
	limit, workers, batch                               int
	verify, list, cells, report                         bool
	verilog, blif                                       string
	rounds                                              int
	delayFactor                                         float64
	choices                                             bool
	choiceWorkers                                       int
	choiceBudget                                        int64
	// stdin backs -aag "-"; nil falls back to os.Stdin.
	stdin io.Reader
}

// choiceOptions folds the -choice-* flags into the view-construction
// options (zero values keep the choice package defaults).
func (cfg runConfig) choiceOptions() choice.Options {
	return choice.Options{Workers: cfg.choiceWorkers, ProofConflicts: cfg.choiceBudget}
}

func run(cfg runConfig) error {
	circuitName, aagPath, policyName := cfg.circuit, cfg.aag, cfg.policy
	modelPath, libPath := cfg.model, cfg.lib
	seed, limit := cfg.seed, cfg.limit
	listNames := cfg.list
	profile, err := experiments.ByName(cfg.profile)
	if err != nil {
		return err
	}
	if listNames {
		for _, d := range experiments.Designs(profile) {
			fmt.Println(d.Name)
		}
		return nil
	}

	lib, err := loadLibrary(libPath)
	if err != nil {
		return err
	}
	g, err := loadCircuit(circuitName, aagPath, profile, cfg.stdin)
	if err != nil {
		return err
	}
	fmt.Printf("circuit: %s\n", g.Stats())

	var res *mapper.Result
	if cfg.baseline != "" {
		if cfg.rounds > 1 || cfg.choices {
			return fmt.Errorf("-baseline delta-remaps against a single-round snapshot; it is incompatible with -rounds > 1 and -choices")
		}
		res, err = runECO(cfg, g, lib)
		if err != nil {
			return err
		}
		return printResult(cfg, g, res)
	}
	// -choices maps a combined choice view instead of the subject graph; the
	// view shares the subject's PIs/POs, so verification below still runs
	// against the original circuit.
	mg := g
	var chSrc cuts.ChoiceSource
	if cfg.choices {
		v := choice.Build(g, cfg.choiceOptions())
		mg, chSrc = v.G, v
	}
	opt := mapper.Options{
		Library: lib, Workers: cfg.workers,
		Rounds: cfg.rounds, DelayFactor: cfg.delayFactor, Choices: chSrc,
	}
	switch policyName {
	case "default":
		opt.Policy = cuts.DefaultPolicy{Limit: limit}
		res, err = mapper.MapStream(mg, opt)
	case "unlimited":
		opt.Policy = cuts.UnlimitedPolicy{}
		res, err = mapper.MapStream(mg, opt)
	case "shuffle":
		opt.Policy = &cuts.ShufflePolicy{
			Rng:   rand.New(rand.NewSource(seed)),
			Limit: limit,
		}
		res, err = mapper.MapStream(mg, opt)
	case "slap":
		s, done, serr := newSLAP(cfg, modelPath, lib)
		if serr != nil {
			return serr
		}
		defer done()
		s.Rounds = cfg.rounds
		s.DelayFactor = cfg.delayFactor
		s.Choices = cfg.choices
		s.ChoiceOpts = cfg.choiceOptions()
		res, err = s.MapStreamContext(context.Background(), g)
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	if err != nil {
		return err
	}
	return printResult(cfg, g, res)
}

// newSLAP loads the -model classifier into a SLAP flow with the -workers
// and -batch settings. The returned function closes the inference
// coalescer.
func newSLAP(cfg runConfig, modelPath string, lib *library.Library) (*core.SLAP, func(), error) {
	if modelPath == "" {
		return nil, nil, fmt.Errorf("-policy slap requires -model (train one with slap-train)")
	}
	model, err := nn.LoadFile(modelPath)
	if err != nil {
		return nil, nil, err
	}
	s := core.New(model, lib)
	s.Workers = cfg.workers
	if cfg.batch < 0 {
		return s, func() {}, nil
	}
	// Each mapping worker classifies a node's cuts in GEMM passes on its
	// own goroutine. The kernels keep per-sample accumulation order: QoR is
	// identical to per-sample inference.
	co := infer.NewCoalescer(infer.NewEngine(model, infer.Options{}), infer.CoalescerOptions{MaxBatch: cfg.batch})
	s.Batch = co
	return s, co.Close, nil
}

// printResult renders the QoR block shared by the cold-map and ECO flows.
func printResult(cfg runConfig, g *aig.AIG, res *mapper.Result) error {
	fmt.Printf("policy:  %s\n", res.PolicyName)
	fmt.Printf("area:    %.2f µm²\n", res.Area)
	fmt.Printf("delay:   %.2f ps\n", res.Delay)
	fmt.Printf("ADP:     %.1f\n", res.ADP())
	fmt.Printf("cells:   %d\n", res.Netlist.NumCells())
	fmt.Printf("cuts:    %d considered (peak %d live), %d match attempts\n", res.CutsConsidered, res.PeakCuts, res.MatchAttempts)
	for _, st := range res.RoundStats {
		fmt.Printf("round %d: %-15s est area %.2f, est delay %.2f (%d cuts, %d match attempts)\n",
			st.Round, st.Mode, st.EstArea, st.EstDelay, st.CutsConsidered, st.MatchAttempts)
	}
	if cfg.cells {
		for name, n := range res.Netlist.CellCounts() {
			fmt.Printf("  %-10s %d\n", name, n)
		}
	}
	if cfg.verify {
		if err := res.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))); err != nil {
			return fmt.Errorf("EQUIVALENCE FAILED: %w", err)
		}
		fmt.Println("verify:  netlist equivalent to subject graph (512 random patterns)")
	}
	if cfg.report {
		fmt.Print(res.Netlist.TimingReport(res.Netlist.STA()))
	}
	if cfg.verilog != "" {
		if err := writeNetlistFile(cfg.verilog, res.Netlist.WriteVerilog); err != nil {
			return err
		}
		fmt.Printf("wrote Verilog to %s\n", cfg.verilog)
	}
	if cfg.blif != "" {
		if err := writeNetlistFile(cfg.blif, res.Netlist.WriteBLIF); err != nil {
			return err
		}
		fmt.Printf("wrote BLIF to %s\n", cfg.blif)
	}
	return nil
}

// runECO is the -baseline flow: map the baseline circuit with snapshot
// capture, then delta-remap the subject graph against it. Only the dirty
// cone re-runs enumeration policy (and, for slap, CNN classification); the
// returned result is byte-identical to a cold map of the subject.
func runECO(cfg runConfig, g *aig.AIG, lib *library.Library) (*mapper.Result, error) {
	bf, err := os.Open(cfg.baseline)
	if err != nil {
		return nil, err
	}
	base, derr := aig.Decode(aig.FormatForPath(cfg.baseline), bf)
	bf.Close()
	if derr != nil {
		return nil, fmt.Errorf("loading -baseline: %w", derr)
	}
	fmt.Printf("baseline: %s\n", base.Stats())

	switch cfg.policy {
	case "default", "unlimited":
		var p cuts.Policy = cuts.DefaultPolicy{Limit: cfg.limit}
		if cfg.policy == "unlimited" {
			p = cuts.UnlimitedPolicy{}
		}
		opt := mapper.Options{Library: lib, Policy: p, Workers: cfg.workers}
		snap := mapper.NewSnapshot(base, opt)
		capOpt := opt
		capOpt.CaptureCuts = snap.Capture
		t0 := time.Now()
		if _, err := mapper.MapStream(base, capOpt); err != nil {
			return nil, fmt.Errorf("mapping baseline: %w", err)
		}
		baseD := time.Since(t0)
		t1 := time.Now()
		res, st, err := mapper.MapDelta(g, opt, snap)
		if err != nil {
			return nil, fmt.Errorf("delta remap: %w", err)
		}
		printDelta(st, baseD, time.Since(t1))
		return res, nil
	case "slap":
		s, done, err := newSLAP(cfg, cfg.model, lib)
		if err != nil {
			return nil, err
		}
		defer done()
		ctx := context.Background()
		t0 := time.Now()
		_, snap, err := s.MapStreamCaptureContext(ctx, base)
		if err != nil {
			return nil, fmt.Errorf("mapping baseline: %w", err)
		}
		baseD := time.Since(t0)
		t1 := time.Now()
		res, _, st, err := s.MapDeltaContext(ctx, g, snap)
		if err != nil {
			return nil, fmt.Errorf("delta remap: %w", err)
		}
		printDelta(st, baseD, time.Since(t1))
		return res, nil
	default:
		return nil, fmt.Errorf("policy %q is not ECO-eligible (want default, unlimited or slap)", cfg.policy)
	}
}

// printDelta summarises how much of the baseline's work the delta reused.
func printDelta(st *mapper.DeltaStats, baseD, deltaD time.Duration) {
	fmt.Printf("eco:     baseline mapped in %s, delta remap in %s\n",
		baseD.Round(time.Millisecond), deltaD.Round(time.Millisecond))
	fmt.Printf("         dirty %d/%d ANDs (%.1f%%), %d cuts reused\n",
		st.DirtyAnds, st.TotalAnds, 100*st.DirtyFraction, st.ReusedCuts)
}

func writeNetlistFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

func loadLibrary(path string) (*library.Library, error) {
	if path == "" {
		return library.ASAP7ish(), nil
	}
	return library.LoadFile(path)
}

// loadCircuit resolves the subject graph: a built-in generator, a circuit
// file, or stdin via "-" — the same aig.Decode path the slap-serve front
// end uses on request bodies.
func loadCircuit(name, aagPath string, p experiments.Profile, stdin io.Reader) (*aig.AIG, error) {
	if aagPath == "-" {
		if stdin == nil {
			stdin = os.Stdin
		}
		return aig.Decode(aig.FormatAuto, stdin)
	}
	if aagPath != "" {
		f, err := os.Open(aagPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return aig.Decode(aig.FormatForPath(aagPath), f)
	}
	if name == "" {
		return nil, fmt.Errorf("need -circuit or -aag (use -list for built-in names)")
	}
	for _, d := range experiments.Designs(p) {
		if d.Name == name {
			return d.Build(), nil
		}
	}
	return nil, fmt.Errorf("unknown circuit %q (use -list)", name)
}
