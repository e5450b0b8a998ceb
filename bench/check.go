package main

import (
	"fmt"
	"math/rand"
	"strings"

	"slap/internal/aig"
)

// checkWords is how many 64-pattern words each output check simulates.
const checkWords = 8

// blifID is the identifier rule BLIF writers apply to port names: every
// character outside [A-Za-z0-9_] becomes '_', and a leading digit gets a
// '_' prefix. The check matches ports by these names, as a consumer of the
// netlist would.
func blifID(s string) string {
	b := []byte(s)
	for i, c := range b {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			b[i] = '_'
		}
	}
	if len(b) == 0 || b[0] >= '0' && b[0] <= '9' {
		return "_" + string(b)
	}
	return string(b)
}

// simulator evaluates a mapped design on packed PI words in g's PI order
// and returns its PO words in g's PO order.
type simulator func(piWords []uint64) []uint64

// checkEquivalent compares sim against the submitted AIG g on seeded random
// patterns.
func checkEquivalent(g *aig.AIG, sim simulator, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, g.NumPIs())
	for w := 0; w < checkWords; w++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		want, got := g.Simulate(in), sim(in)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("output %s differs from the submitted AIG", g.POs()[i].Name)
			}
		}
	}
	return nil
}

// blifSimulator reads a netlist's BLIF back into an AIG and lines its ports
// up with g's by name.
func blifSimulator(g *aig.AIG, blif string) (simulator, error) {
	ng, err := aig.ReadBLIF(strings.NewReader(blif))
	if err != nil {
		return nil, fmt.Errorf("reading the returned BLIF: %w", err)
	}
	if ng.NumPIs() != g.NumPIs() || ng.NumPOs() != g.NumPOs() {
		return nil, fmt.Errorf("returned BLIF has %d inputs and %d outputs, want %d and %d",
			ng.NumPIs(), ng.NumPOs(), g.NumPIs(), g.NumPOs())
	}
	piIndex := make(map[string]int, g.NumPIs())
	for i := range g.NumPIs() {
		piIndex[blifID(g.PIName(i))] = i
	}
	piFrom := make([]int, ng.NumPIs()) // netlist PI -> submitted PI
	for i := range ng.NumPIs() {
		j, ok := piIndex[ng.PIName(i)]
		if !ok {
			return nil, fmt.Errorf("returned BLIF input %s is not an input of the design", ng.PIName(i))
		}
		piFrom[i] = j
	}
	poIndex := make(map[string]int, ng.NumPOs())
	for i, po := range ng.POs() {
		poIndex[po.Name] = i
	}
	poFrom := make([]int, g.NumPOs()) // submitted PO -> netlist PO
	for i, po := range g.POs() {
		j, ok := poIndex[blifID(po.Name)]
		if !ok {
			return nil, fmt.Errorf("output %s is missing from the returned BLIF", po.Name)
		}
		poFrom[i] = j
	}
	in := make([]uint64, ng.NumPIs())
	return func(pis []uint64) []uint64 {
		for i, j := range piFrom {
			in[i] = pis[j]
		}
		got := ng.Simulate(in)
		out := make([]uint64, len(poFrom))
		for i, j := range poFrom {
			out[i] = got[j]
		}
		return out
	}, nil
}

// checkSample verifies one response independently of the server: every
// ASIC netlist is read back and simulated against the submitted AIG, the
// server must report verified=true, and a classification must cover every
// AND node with a consistent histogram. LUT answers carry no netlist; the
// traced run checks them.
func checkSample(s sample, seed int64) error {
	if s.err != nil {
		return s.err
	}
	r := s.req
	switch {
	case r.path == "/v1/classify":
		sum := 0
		for _, c := range s.resp.Histogram {
			sum += c
		}
		if s.resp.Nodes != r.g.NumAnds() || sum != s.resp.Cuts || s.resp.Cuts == 0 {
			return fmt.Errorf("classify %s: %d nodes, %d cuts, histogram sum %d for a design of %d ANDs",
				r.design, s.resp.Nodes, s.resp.Cuts, sum, r.g.NumAnds())
		}
	case r.target == "asic":
		if !s.resp.Verified || s.resp.NetlistFormat != "blif" {
			return fmt.Errorf("map %s: verified=%v netlist_format=%q", r.design, s.resp.Verified, s.resp.NetlistFormat)
		}
		sim, err := blifSimulator(r.g, s.resp.Netlist)
		if err == nil {
			err = checkEquivalent(r.g, sim, seed)
		}
		if err != nil {
			return fmt.Errorf("map %s: %w", r.design, err)
		}
	case r.target == "lut":
		if s.resp.LUTs <= 0 || s.resp.Depth <= 0 {
			return fmt.Errorf("map %s: lut answer with %d LUTs at depth %d", r.design, s.resp.LUTs, s.resp.Depth)
		}
	}
	return nil
}
