package slap_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"slap"
)

// TestFacadeQuickstart exercises the public API end to end: graph
// construction, mapping under two policies, AIGER round trip, custom
// library parsing, model save/load.
func TestFacadeQuickstart(t *testing.T) {
	g := slap.NewAIG("facade")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	g.AddPO("f", g.Or(g.And(a, b), g.Xor(b, c)))

	lib := slap.ASAP7ish()
	res, err := slap.Map(g, slap.MapOptions{Library: lib, Policy: slap.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Area <= 0 || res.Delay <= 0 {
		t.Fatalf("degenerate QoR: %+v", res)
	}
	if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	unl, err := slap.Map(g, slap.MapOptions{Library: lib, Policy: slap.UnlimitedPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if unl.CutsConsidered < res.CutsConsidered {
		t.Fatalf("unlimited saw fewer cuts than default")
	}

	// AIGER round trip through the facade.
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := slap.ReadAAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPIs() != g.NumPIs() || h.NumPOs() != g.NumPOs() {
		t.Fatalf("AIGER round trip changed the interface")
	}

	// Custom library parsing.
	custom, err := slap.ParseLibrary("mini", strings.NewReader(
		"GATE inv 1 O=!a DELAY 5 SLOPE 1\nGATE nand2 1.5 O=!(a&b) DELAY 9 SLOPE 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := slap.Map(g, slap.MapOptions{Library: custom, Policy: slap.DefaultPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeTrainAndPersist runs a miniature end-to-end SLAP training and
// model persistence through the facade.
func TestFacadeTrainAndPersist(t *testing.T) {
	if testing.Short() {
		t.Skip("training flow skipped in -short mode")
	}
	lib := slap.ASAP7ish()
	trained, report, err := slap.Train(slap.TrainOptions{
		Library:        lib,
		MapsPerCircuit: 30,
		Epochs:         4,
		Filters:        8,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.BinaryAccuracy <= 0.4 {
		t.Fatalf("binary accuracy %.3f implausibly low", report.BinaryAccuracy)
	}

	var buf bytes.Buffer
	if err := trained.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	model, err := slap.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := slap.NewSLAP(model, lib)

	g := slap.NewAIG("target")
	var lits []slap.Lit
	for i := 0; i < 6; i++ {
		lits = append(lits, g.AddPI(""))
	}
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = g.Xor(acc, g.And(acc, l).Not())
	}
	g.AddPO("f", acc)

	res, err := s2.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(6))); err != nil {
		t.Fatal(err)
	}
}
