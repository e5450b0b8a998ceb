package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// spec is BENCHMARK.json: the workloads and the metrics with their bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values gathers one metric of one workload across the runs of a file in
// which that workload passed every check; a failed run's numbers are not
// comparable.
func (rf *reportFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		for _, w := range r.Workloads {
			if m, ok := w.Metrics[name]; ok && w.Workload == workload && w.Failed == 0 {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (rf *reportFile) workloads() []string {
	var out []string
	for _, r := range rf.Runs {
		for _, w := range r.Workloads {
			if !slices.Contains(out, w.Workload) {
				out = append(out, w.Workload)
			}
		}
	}
	return out
}

// runCompare prints, for every workload and metric both files carry, the
// median and quartiles of each side's runs and the change of the medians.
// An end-to-end change is judged against its bound: a worsening beyond it
// is a REGRESSION, and where either side's spread (quartile distance over
// median) exceeds the bound the result is "unresolved" unless every new run
// beats every base run. setup_s is judged by its median alone: its spread
// follows the host's speed more than any other metric's and is printed for
// information (bench/README.md, Bounds and spreads).
func runCompare(w io.Writer, specPath, basePath, newPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		label string
		rf    *reportFile
	}{{"base", base}, {"new", cur}} {
		// One line per distinct machine, toolchain, commit and window.
		seeds := map[string][]int64{}
		var order []string
		for _, r := range f.rf.Runs {
			st := r.Stamp
			k := fmt.Sprintf("%s, %d CPUs, %s, commit %q, %gs window", st.CPU, st.NProc, st.GoVersion, st.Commit, st.Seconds)
			if _, ok := seeds[k]; !ok {
				order = append(order, k)
			}
			if !slices.Contains(seeds[k], st.Seed) {
				seeds[k] = append(seeds[k], st.Seed)
			}
		}
		for _, k := range order {
			fmt.Fprintf(w, "%-4s: %s, seeds %v\n", f.label, k, seeds[k])
		}
	}
	fmt.Fprintf(w, "\n%-17s %-26s %24s %24s %8s %6s  %s\n", "workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "change", "bound", "verdict")
	for _, wl := range base.workloads() {
		for _, m := range sp.EndToEnd {
			compareMetric(w, wl, m.Name, m.Better, m.Bound, m.Name != "setup_s", base.values(wl, m.Name), cur.values(wl, m.Name))
		}
		for _, d := range infoDefs {
			compareMetric(w, wl, d.name, "lower", math.NaN(), false, base.values(wl, d.name), cur.values(wl, d.name))
		}
		for _, m := range sp.PerLayer {
			compareMetric(w, wl, m.Name, m.Better, math.NaN(), false, base.values(wl, m.Name), cur.values(wl, m.Name))
		}
	}
	return nil
}

// compareMetric prints one row; a NaN bound marks a metric without one: a
// per-layer metric, reported without a verdict, or an end-to-end one from
// infoDefs, always unresolved. Without judgeSpread the verdict
// rests on the change of the medians alone and the spread is only shown.
func compareMetric(w io.Writer, workload, name, better string, bound float64, judgeSpread bool, b, n []float64) {
	if len(b) == 0 || len(n) == 0 {
		return
	}
	bq1, bmed, bq3 := quartiles(b)
	nq1, nmed, nq3 := quartiles(n)
	change := ratio(nmed-bmed, math.Abs(bmed))
	worse := change
	if better == "higher" {
		worse = -change
	}
	verdict := ""
	if isInfo(name) {
		verdict = "unresolved (no bound)"
	}
	if !math.IsNaN(bound) {
		spread := max(ratio(bq3-bq1, math.Abs(bmed)), ratio(nq3-nq1, math.Abs(nmed)))
		switch {
		case judgeSpread && spread > bound && beatsAll(n, b, better):
			verdict = "better in every run"
		case judgeSpread && spread > bound:
			verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
		case worse > bound:
			verdict = "REGRESSION"
		default:
			verdict = "ok"
		}
		if !judgeSpread {
			verdict += fmt.Sprintf(" (median only; spread %.1f%%)", 100*spread)
		}
	}
	boundCol := "-"
	if !math.IsNaN(bound) {
		boundCol = fmt.Sprintf("%g%%", 100*bound)
	}
	fmt.Fprintf(w, "%-17s %-26s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %+7.1f%% %6s  %s\n",
		workload, name, bmed, bq1, bq3, nmed, nq1, nq3, 100*change, boundCol, verdict)
}

// beatsAll reports whether every value of n is strictly better than every
// value of b.
func beatsAll(n, b []float64, better string) bool {
	if better == "higher" {
		return slices.Min(n) > slices.Max(b)
	}
	return slices.Max(n) < slices.Min(b)
}
