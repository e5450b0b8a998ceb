// Custom library: define a small standard-cell library in the genlib-like
// text format, map a design against it, and compare with the built-in
// ASAP7-flavoured library — the workflow a downstream user follows to
// retarget the mapper to their own PDK.
//
//	go run ./examples/custom_library
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// A deliberately tiny NAND/NOR/INV-only library, as found in very
// conservative flows. All functions are expressed over pins a..e with
// ! & | ^ and parentheses; DELAY is the intrinsic pin delay in ps and
// SLOPE the extra ps per fanout.
const tinyLib = `
# name       area  function      timing
GATE inv     0.5   O=!a          DELAY 5  SLOPE 1.5
GATE nand2   0.8   O=!(a&b)      DELAY 9  SLOPE 2.0
GATE nand3   1.1   O=!(a&b&c)    DELAY 11 SLOPE 2.4
GATE nor2    0.8   O=!(a|b)      DELAY 10 SLOPE 2.4
GATE nor3    1.1   O=!(a|b|c)    DELAY 13 SLOPE 2.9
`

func main() {
	custom, err := library.Parse("nand-nor-inv", strings.NewReader(tinyLib))
	if err != nil {
		log.Fatal(err)
	}
	builtin := library.ASAP7ish()

	g := circuits.ALUCompare(16)
	fmt.Println("design:", g.Stats())
	fmt.Printf("\n%-14s %6s %10s %10s %8s\n", "library", "gates", "area µm²", "delay ps", "cells")

	for _, lib := range []*library.Library{custom, builtin} {
		res, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(1))); err != nil {
			log.Fatalf("%s: %v", lib.Name, err)
		}
		fmt.Printf("%-14s %6d %10.1f %10.1f %8d\n",
			lib.Name, len(lib.Gates), res.Area, res.Delay, res.Netlist.NumCells())
	}

	fmt.Println("\nThe NAND/NOR/INV library needs many more cells and is slower —")
	fmt.Println("rich libraries let single gates absorb whole 5-input cuts.")
}
