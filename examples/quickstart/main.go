// Quickstart: build a circuit, map it three ways (vanilla heuristic,
// exhaustive cuts, SLAP), and compare the results.
//
//	go run ./examples/quickstart
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
	"slap/internal/mapper"
)

func main() {
	// 1. A subject graph: a 64-bit carry-lookahead adder built with the
	//    word-level circuit builder.
	g := circuits.CarryLookaheadAdder(64)
	fmt.Println("subject graph:", g.Stats())

	// 2. The target standard-cell library (synthetic, ASAP7-flavoured).
	lib := library.ASAP7ish()

	// 3. Map with the vanilla ABC heuristic: sort cuts by leaf count,
	//    filter dominated cuts, keep 250 per node.
	abc, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Map with exhaustive cut exploration ("Unlimited ABC").
	unl, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Train a small SLAP model on random mappings of two 16-bit adders
	//    (the paper's training setup, scaled down to run in seconds), then
	//    map with ML-filtered cuts.
	slap, report, err := core.Train(core.TrainOptions{
		Library:        lib,
		MapsPerCircuit: 120,
		Epochs:         12,
		Filters:        32,
		Seed:           1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: binary keep/drop accuracy %.1f%% on %d held-out cuts\n",
		100*report.BinaryAccuracy, report.ValSamples)

	ml, err := slap.MapStreamContext(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}

	// 6. Every mapped netlist is verified against the subject graph.
	for _, r := range []*mapper.Result{abc, unl, ml} {
		if err := r.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(42))); err != nil {
			log.Fatalf("%s: %v", r.PolicyName, err)
		}
	}

	fmt.Printf("\n%-14s %10s %10s %12s %9s\n", "flow", "area µm²", "delay ps", "ADP", "cuts")
	for _, r := range []*mapper.Result{abc, unl, ml} {
		fmt.Printf("%-14s %10.1f %10.1f %12.0f %9d\n",
			r.PolicyName, r.Area, r.Delay, r.ADP(), r.CutsConsidered)
	}
}
