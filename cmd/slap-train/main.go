// Command slap-train generates random-mapping training data from the two
// 16-bit adder architectures, trains the SLAP cut classifier, reports its
// accuracy (paper §V-B) and saves the model.
//
// Usage:
//
//	slap-train -profile fast -o model.gob
//	slap-train -maps 1250 -epochs 50 -filters 128 -o model.gob
//
// Long sweeps can run sharded and resumably: -shards splits the sweep
// into checkpointed shard files under -out-dir, and -resume picks a
// killed run back up, re-running only missing or corrupt shards. The
// merged dataset is byte-identical to the single-process sweep with the
// same seed.
//
//	slap-train -profile paper -shards 16 -out-dir sweep/ -o model.gob
//	slap-train -profile paper -shards 16 -out-dir sweep/ -resume -o model.gob
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/dataset"
	"slap/internal/experiments"
	"slap/internal/genjob"
	"slap/internal/library"
)

func main() {
	var opt options
	flag.StringVar(&opt.Profile, "profile", "fast", "parameter profile: fast or paper")
	flag.IntVar(&opt.Maps, "maps", 0, "random mappings per training circuit (0 = profile value)")
	flag.IntVar(&opt.Epochs, "epochs", 0, "training epochs (0 = profile value)")
	flag.IntVar(&opt.Filters, "filters", 0, "convolution filters (0 = profile value)")
	flag.Int64Var(&opt.Seed, "seed", 1, "random seed")
	flag.StringVar(&opt.Out, "o", "model.gob", "output model file")
	flag.BoolVar(&opt.Quiet, "q", false, "suppress per-epoch progress")
	flag.IntVar(&opt.Shards, "shards", 0, "split data generation into N checkpointed shards (0 = single-process)")
	flag.StringVar(&opt.OutDir, "out-dir", "", "shard checkpoint directory (required with -shards)")
	flag.BoolVar(&opt.Resume, "resume", false, "resume a previous sharded run from its manifest")
	flag.IntVar(&opt.FailureBudget, "failure-budget", 0, "shards allowed to fail permanently before the run aborts")
	flag.IntVar(&opt.MaxAttempts, "max-attempts", 0, "attempts per shard before it counts as failed (0 = 3)")
	flag.IntVar(&opt.MapFailures, "map-failures", 0, "individual mappings allowed to fail across the sweep")
	flag.StringVar(&opt.DatasetOut, "dataset-out", "", "also save the generated dataset (gob) to this file — the reference for byte-comparing fleet sweeps")
	flag.BoolVar(&opt.DatasetOnly, "dataset-only", false, "stop after dataset generation (skip training); useful with -dataset-out")
	flag.Parse()

	// SIGINT/SIGTERM cancel the sweep cleanly: in-flight shards stop, the
	// manifest keeps every completed shard, and -resume continues later.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if err := run(ctx, opt); err != nil {
		fmt.Fprintln(os.Stderr, "slap-train:", err)
		os.Exit(1)
	}
}

// options carries the CLI configuration; tests call run directly with it.
type options struct {
	Profile       string
	Maps          int
	Epochs        int
	Filters       int
	Seed          int64
	Out           string
	Quiet         bool
	Shards        int
	OutDir        string
	Resume        bool
	FailureBudget int
	MaxAttempts   int
	MapFailures   int
	DatasetOut    string
	DatasetOnly   bool
}

func run(ctx context.Context, opt options) error {
	p, err := experiments.ByName(opt.Profile)
	if err != nil {
		return err
	}
	if opt.Maps != 0 {
		p.TrainMaps = opt.Maps
	}
	if opt.Epochs != 0 {
		p.TrainEpochs = opt.Epochs
	}
	if opt.Filters != 0 {
		p.Filters = opt.Filters
	}
	p.Seed = opt.Seed

	lib := library.ASAP7ish()
	var ds *dataset.Dataset
	if opt.Shards > 0 {
		ds, err = runSharded(ctx, opt, p.TrainMaps, lib)
		if err != nil {
			return err
		}
	} else {
		fmt.Printf("generating %d random mappings per circuit (rc16 + cla16)...\n", p.TrainMaps)
		if opt.DatasetOut != "" || opt.DatasetOnly {
			// Generate explicitly (instead of inside core.Train) so the
			// sweep can be saved; same config shape a fleet sweep resolves
			// to, so the files byte-compare.
			ds, err = dataset.Generate(dataset.Config{
				Circuits:       []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()},
				Library:        lib,
				MapsPerCircuit: p.TrainMaps,
				Seed:           p.Seed,
				MaxFailures:    opt.MapFailures,
			})
			if err != nil {
				return err
			}
		}
	}

	if opt.DatasetOut != "" {
		if err := ds.SaveFile(opt.DatasetOut); err != nil {
			return err
		}
		fmt.Printf("saved dataset to %s (%d samples)\n", opt.DatasetOut, ds.Len())
	}
	if opt.DatasetOnly {
		return nil
	}

	s, rep, err := core.Train(core.TrainOptions{
		Library:        lib,
		MapsPerCircuit: p.TrainMaps,
		Epochs:         p.TrainEpochs,
		Filters:        p.Filters,
		Seed:           p.Seed,
		Dataset:        ds,
		Verbose:        !opt.Quiet,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\ndataset: %d samples (%d train / %d val), classes %v\n",
		rep.Samples, rep.TrainSamples, rep.ValSamples, rep.ClassHistogram)
	fmt.Printf("10-class validation accuracy: %.1f%%  (paper: ~34%%)\n", 100*rep.MultiClassAccuracy)
	fmt.Printf("binary keep/drop accuracy:    %.1f%%  (paper: 93.4%%)\n", 100*rep.BinaryAccuracy)
	fmt.Printf("model: %d parameters\n", s.Model.NumParams())

	if err := s.Model.SaveFile(opt.Out); err != nil {
		return err
	}
	fmt.Printf("saved model to %s\n", opt.Out)
	return nil
}

// runSharded generates the training sweep through genjob: checkpointed
// shard files, per-shard retry with backoff, and manifest-driven resume.
func runSharded(ctx context.Context, opt options, maps int, lib *library.Library) (*dataset.Dataset, error) {
	if opt.OutDir == "" {
		return nil, fmt.Errorf("-shards requires -out-dir")
	}
	mode := "starting"
	if opt.Resume {
		mode = "resuming"
	}
	fmt.Printf("%s sharded sweep: %d mappings per circuit over %d shards in %s\n",
		mode, maps, opt.Shards, opt.OutDir)

	cfg := genjob.Config{
		Dataset: dataset.Config{
			Circuits:       []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()},
			Library:        lib,
			MapsPerCircuit: maps,
			Seed:           opt.Seed,
			MaxFailures:    opt.MapFailures,
		},
		OutDir:        opt.OutDir,
		Shards:        opt.Shards,
		Resume:        opt.Resume,
		MaxAttempts:   opt.MaxAttempts,
		FailureBudget: opt.FailureBudget,
	}
	if !opt.Quiet {
		cfg.Progress = func(e genjob.Event) { fmt.Println("  " + e.String()) }
	}
	ds, rep, err := genjob.Run(ctx, cfg, nil)
	if err != nil {
		if rep != nil && len(rep.FailedShards) > 0 {
			return nil, fmt.Errorf("%w (failed shards: %v; completed shards are checkpointed, re-run with -resume)",
				err, rep.FailedShards)
		}
		return nil, fmt.Errorf("%w (completed shards are checkpointed, re-run with -resume)", err)
	}
	fmt.Printf("sweep done: %d shards (%d reused, %d executed, %d retries, %d corrupt re-run), %d samples\n",
		rep.Shards, rep.Reused, rep.Executed, rep.Retries, rep.Corrupt, rep.Samples)
	if rep.SkippedMaps > 0 {
		fmt.Printf("warning: %d mappings skipped within the failure budget\n", rep.SkippedMaps)
	}
	return ds, nil
}
