package main

import (
	"context"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at smoke scale, untraced and
// traced, and checks that each run answers correctly and prints every
// metric BENCHMARK.json lists, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds slap-serve and slap-train and runs every workload")
	}
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, trace := range []bool{false, true} {
		defs, listed := endToEndDefs, sp.EndToEnd
		if trace {
			defs, listed = perLayerDefs, sp.PerLayer
		}
		if len(defs) != len(listed) {
			t.Errorf("trace=%v: the harness has %d metrics, BENCHMARK.json lists %d", trace, len(defs), len(listed))
		}
		rep, err := run(context.Background(), options{seed: 1, seconds: 1, trace: trace, smoke: true, root: "..", build: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range rep.Workloads {
			if w.Failed != 0 || w.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Workload, trace, w.Failed, w.Attempted, w.Failures)
			}
			for _, l := range listed {
				m, ok := w.Metrics[l.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Workload, trace, l.Name)
				case m.Unit != l.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Workload, l.Name, m.Unit, l.Unit)
				// Residuals subtract a standalone enumeration and can read
				// slightly below zero on small inputs (README, Per-layer
				// metrics); the overhead is a ratio minus one.
				case !trace && m.Value <= 0,
					trace && !strings.HasSuffix(l.Name, "residual_ms") && l.Name != "trace.overhead_frac" && m.Value < 0,
					l.Name == "trace.overhead_frac" && m.Value <= -1:
					t.Errorf("%s: metric %s = %g is not a measured value", w.Workload, l.Name, m.Value)
				}
			}
		}
	}
}
