// FPGA extension: the paper argues its cut-filtering findings "can be
// extended to benefit FPGA-mapping ... as the nature of the problem is the
// same". This example maps a design to 5-input LUTs under the vanilla
// heuristic, exhaustive cuts, and the SLAP ML filter, comparing LUT count,
// depth and cut footprint.
//
//	go run ./examples/fpga_mapping
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/lutmap"
)

func main() {
	g := circuits.BoothMultiplier(10)
	fmt.Println("subject graph:", g.Stats())

	// Train the cut classifier exactly as for ASIC mapping: the model is
	// technology-independent (it sees only subject-graph structure).
	slap, report, err := core.Train(core.TrainOptions{
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 120,
		Epochs:         12,
		Filters:        32,
		Seed:           2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: binary keep/drop accuracy %.1f%%\n\n", 100*report.BinaryAccuracy)

	def, err := lutmap.MapStream(g, lutmap.Options{Policy: cuts.DefaultPolicy{}})
	if err != nil {
		log.Fatal(err)
	}
	unl, err := lutmap.MapStream(g, lutmap.Options{Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		log.Fatal(err)
	}
	ml, err := slap.MapLUTStreamContext(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	fmt.Printf("%-14s %8s %8s %10s\n", "flow", "LUTs", "depth", "cuts")
	for _, r := range []*lutmap.Result{def, unl, ml} {
		if err := r.EquivalentTo(g, 8, rng); err != nil {
			log.Fatalf("%s: %v", r.PolicyName, err)
		}
		fmt.Printf("%-14s %8d %8d %10d\n", r.PolicyName, r.NumLUTs(), r.Depth, r.CutsConsidered)
	}
	fmt.Println("\nAll three LUT networks verified equivalent to the subject graph.")
}
