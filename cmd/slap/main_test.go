package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/library"
)

func TestRunDefaultPolicy(t *testing.T) {
	if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShuffleAndCells(t *testing.T) {
	if err := run(runConfig{circuit: "bar", profile: "fast", policy: "shuffle", seed: 7, limit: 8, verify: true, cells: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStreaming drives the fused streaming pipeline — the only mapping
// path — with equivalence checking for every heuristic policy.
func TestRunStreaming(t *testing.T) {
	for _, policy := range []string{"default", "shuffle", "unlimited"} {
		if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: policy, seed: 3, verify: true}); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run(runConfig{profile: "fast", policy: "default", seed: 1, list: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAAGInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.aag")
	g := circuits.TrainRC16()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteAAG(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(runConfig{aag: path, profile: "fast", policy: "unlimited", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStdinInput maps a circuit piped to -aag "-": the stdin decode
// path shared with the slap-serve front end, format auto-detected.
func TestRunStdinInput(t *testing.T) {
	var buf bytes.Buffer
	if err := circuits.TrainRC16().WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{aag: "-", stdin: &buf, profile: "fast", policy: "unlimited", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
	// BLIF on stdin sniffs too.
	blif := ".model tiny\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n"
	if err := run(runConfig{aag: "-", stdin: strings.NewReader(blif), profile: "fast", policy: "default", seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

// trainModel trains a tiny classifier and saves it under dir.
func trainModel(t *testing.T, dir string) string {
	t.Helper()
	modelPath := filepath.Join(dir, "model.gob")
	s, _, err := core.Train(core.TrainOptions{
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 20,
		Epochs:         2,
		Filters:        8,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Model.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	return modelPath
}

func TestRunSLAPPolicy(t *testing.T) {
	modelPath := trainModel(t, t.TempDir())
	if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: "slap", model: modelPath, seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

func writeAAGFile(t *testing.T, path string, g *aig.AIG) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// resultBlock runs cfg and returns the QoR block it prints: policy, area,
// delay, ADP, cell count and the cut counters.
func resultBlock(t *testing.T, cfg runConfig) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(cfg)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var block []string
	for _, line := range strings.Split(string(out), "\n") {
		for _, p := range []string{"policy:", "area:", "delay:", "ADP:", "cells:", "cuts:"} {
			if strings.HasPrefix(line, p) {
				block = append(block, line)
			}
		}
	}
	return strings.Join(block, "\n")
}

// TestRunBaselineECO drives the offline ECO: delta-remapping a late-span
// edit against its baseline must print the QoR and cut counters, peak
// included, and write the BLIF of a cold map of the edit, under a
// cone-local policy and under slap. An edit that changes the graph depth,
// which slap's delta refuses, maps cold under both. -baseline must refuse
// the configurations it cannot delta-remap.
func TestRunBaselineECO(t *testing.T) {
	dir := t.TempDir()
	modelPath := trainModel(t, dir)
	base := circuits.BoothMultiplier(6)
	basePath, editedPath := filepath.Join(dir, "base.aag"), filepath.Join(dir, "edited.aag")
	writeAAGFile(t, basePath, base)
	writeAAGFile(t, editedPath, circuits.PerturbSpan(base, 7, 0.9, 1.0, 0.3))
	// A one-gate baseline and an edit that adds a level on top of it.
	shallowPath, deeperPath := filepath.Join(dir, "shallow.aag"), filepath.Join(dir, "deeper.aag")
	for path, text := range map[string]string{
		shallowPath: "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n",
		deeperPath:  "aag 4 2 0 2 2\n2\n4\n6\n8\n6 2 4\n8 6 3\n",
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct{ name, policy, base, edited string }{
		{"default", "default", basePath, editedPath},
		{"slap", "slap", basePath, editedPath},
		{"default-deeper", "default", shallowPath, deeperPath},
		{"slap-deeper", "slap", shallowPath, deeperPath},
	} {
		cold, eco := filepath.Join(dir, tc.name+"-cold.blif"), filepath.Join(dir, tc.name+"-eco.blif")
		cfg := runConfig{aag: tc.edited, profile: "fast", policy: tc.policy, model: modelPath, seed: 1, verify: true, blif: cold}
		wantBlock := resultBlock(t, cfg)
		cfg.baseline, cfg.blif = tc.base, eco
		if got := resultBlock(t, cfg); got != wantBlock {
			t.Fatalf("%s: -baseline printed\n%s\nwant\n%s", tc.name, got, wantBlock)
		}
		want, err := os.ReadFile(cold)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(eco)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: -baseline BLIF differs from the cold map's", tc.name)
		}
	}

	for _, cfg := range []runConfig{
		{policy: "shuffle"},
		{policy: "default", rounds: 2},
		{policy: "default", choices: true},
	} {
		cfg.aag, cfg.baseline, cfg.profile, cfg.seed = editedPath, basePath, "fast", 1
		if err := run(cfg); err == nil {
			t.Errorf("-baseline with %+v: want an error", cfg)
		}
	}
}

func TestRunCustomLibrary(t *testing.T) {
	dir := t.TempDir()
	libPath := filepath.Join(dir, "lib.txt")
	text := "GATE inv 1 O=!a DELAY 5 SLOPE 1\nGATE nand2 1.5 O=!(a&b) DELAY 9 SLOPE 2\n"
	if err := os.WriteFile(libPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", lib: libPath, seed: 1, verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() error
	}{
		{"unknown profile", func() error {
			return run(runConfig{circuit: "rc64b", profile: "bogus", policy: "default", seed: 1})
		}},
		{"unknown circuit", func() error {
			return run(runConfig{circuit: "nonesuch", profile: "fast", policy: "default", seed: 1})
		}},
		{"unknown policy", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "bogus", seed: 1})
		}},
		{"slap without model", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "slap", seed: 1})
		}},
		{"missing aag", func() error {
			return run(runConfig{aag: "/nonexistent.aag", profile: "fast", policy: "default", seed: 1})
		}},
		{"missing circuit and aag", func() error {
			return run(runConfig{profile: "fast", policy: "default", seed: 1})
		}},
		{"missing library file", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", lib: "/nonexistent.lib", seed: 1})
		}},
		{"negative limit", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", limit: -1, seed: 1})
		}},
		{"rounds over the limit", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", rounds: 17, seed: 1})
		}},
		{"NaN delay factor", func() error {
			return run(runConfig{circuit: "rc64b", profile: "fast", policy: "default", rounds: 4, delayFactor: math.NaN(), seed: 1})
		}},
	}
	for _, c := range cases {
		if err := c.f(); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if strings.Contains(err.Error(), "EQUIVALENCE") {
			t.Errorf("%s: unexpected equivalence failure: %v", c.name, err)
		}
	}
}

func TestRunWritesNetlistFiles(t *testing.T) {
	dir := t.TempDir()
	v := filepath.Join(dir, "out.v")
	b := filepath.Join(dir, "out.blif")
	err := run(runConfig{
		circuit: "rc64b", profile: "fast", policy: "default", seed: 1,
		verify: true, verilog: v, blif: b, report: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vd, err := os.ReadFile(v)
	if err != nil || !strings.Contains(string(vd), "module") {
		t.Fatalf("verilog output missing: %v", err)
	}
	bd, err := os.ReadFile(b)
	if err != nil || !strings.Contains(string(bd), ".model") {
		t.Fatalf("blif output missing: %v", err)
	}
}
