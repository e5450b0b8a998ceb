package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// QoR is one flow's quality-of-results on one design.
type QoR struct {
	// Area in µm², Delay in ps, Cuts exposed to the mapper.
	Area  float64
	Delay float64
	Cuts  int
}

// ADP returns the area-delay product.
func (q QoR) ADP() float64 { return q.Area * q.Delay }

// Table2Row compares the three flows on one design (one row of the paper's
// Table II).
type Table2Row struct {
	Circuit string
	ABC     QoR // vanilla ABC: sort by leaves, dominance filter, 250 cap
	Unl     QoR // Unlimited ABC: every cut
	SLAP    QoR // ML-filtered cuts
}

// Table2 is the full experiment result.
type Table2 struct {
	ProfileName string
	Rows        []Table2Row
}

// RunTable2 maps every design under the three flows. The SLAP instance must
// already be trained.
func RunTable2(p Profile, s *core.SLAP, lib *library.Library, progress func(string)) (*Table2, error) {
	return runTable("table2", p.Name, Designs(p), s, lib, progress)
}

// runTable maps each design under the ABC, Unlimited and SLAP flows; tag
// prefixes progress lines and errors.
func runTable(tag, profile string, designs []Design, s *core.SLAP, lib *library.Library, progress func(string)) (*Table2, error) {
	if progress == nil {
		progress = func(string) {}
	}
	t := &Table2{ProfileName: profile}
	for _, d := range designs {
		g := d.Build()
		progress(fmt.Sprintf("%s: %s (%d ands)", tag, d.Name, g.NumAnds()))
		abc, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
		if err != nil {
			return nil, fmt.Errorf("%s: %s/abc: %w", tag, d.Name, err)
		}
		unl, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.UnlimitedPolicy{}})
		if err != nil {
			return nil, fmt.Errorf("%s: %s/unlimited: %w", tag, d.Name, err)
		}
		sl, err := s.MapStreamContext(context.Background(), g)
		if err != nil {
			return nil, fmt.Errorf("%s: %s/slap: %w", tag, d.Name, err)
		}
		t.Rows = append(t.Rows, Table2Row{
			Circuit: d.Name,
			ABC:     QoR{Area: abc.Area, Delay: abc.Delay, Cuts: abc.CutsConsidered},
			Unl:     QoR{Area: unl.Area, Delay: unl.Delay, Cuts: unl.CutsConsidered},
			SLAP:    QoR{Area: sl.Area, Delay: sl.Delay, Cuts: sl.CutsConsidered},
		})
	}
	return t, nil
}

// geomean returns the geometric mean of xs (which must be positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Geomeans returns the geometric-mean QoR of each flow across all rows.
func (t *Table2) Geomeans() (abc, unl, slap QoR) {
	col := func(f func(Table2Row) QoR) QoR {
		var areas, delays, cutsCounts []float64
		for _, r := range t.Rows {
			q := f(r)
			areas = append(areas, q.Area)
			delays = append(delays, q.Delay)
			cutsCounts = append(cutsCounts, float64(q.Cuts))
		}
		return QoR{
			Area:  geomean(areas),
			Delay: geomean(delays),
			Cuts:  int(geomean(cutsCounts)),
		}
	}
	return col(func(r Table2Row) QoR { return r.ABC }),
		col(func(r Table2Row) QoR { return r.Unl }),
		col(func(r Table2Row) QoR { return r.SLAP })
}

// Summary aggregates the headline ratios the paper reports in §V-C.
type Summary struct {
	// SLAP vs vanilla ABC geomean ratios (paper: delay 0.90, area 1.02,
	// cuts 0.76, ADP 0.93).
	SLAPvsABCDelay, SLAPvsABCArea, SLAPvsABCCuts, SLAPvsABCADP float64
	// SLAP vs Unlimited ABC geomean ratios (paper: delay 0.94, area 1.03,
	// cuts 0.49).
	SLAPvsUnlDelay, SLAPvsUnlArea, SLAPvsUnlCuts float64
	// Unlimited vs vanilla ABC (paper: delay 0.96, cuts 1.56).
	UnlVsABCDelay, UnlVsABCCuts float64
	// DelayWinsVsABC counts designs where SLAP's delay beats vanilla ABC
	// (paper: 14/14); DelayWinsVsUnl likewise vs Unlimited (paper: 10/14).
	DelayWinsVsABC, DelayWinsVsUnl int
}

// Summarise computes the headline ratios.
func (t *Table2) Summarise() Summary {
	abc, unl, slap := t.Geomeans()
	s := Summary{
		SLAPvsABCDelay: slap.Delay / abc.Delay,
		SLAPvsABCArea:  slap.Area / abc.Area,
		SLAPvsABCCuts:  float64(slap.Cuts) / float64(abc.Cuts),
		SLAPvsABCADP:   slap.ADP() / abc.ADP(),
		SLAPvsUnlDelay: slap.Delay / unl.Delay,
		SLAPvsUnlArea:  slap.Area / unl.Area,
		SLAPvsUnlCuts:  float64(slap.Cuts) / float64(unl.Cuts),
		UnlVsABCDelay:  unl.Delay / abc.Delay,
		UnlVsABCCuts:   float64(unl.Cuts) / float64(abc.Cuts),
	}
	for _, r := range t.Rows {
		if r.SLAP.Delay <= r.ABC.Delay {
			s.DelayWinsVsABC++
		}
		if r.SLAP.Delay <= r.Unl.Delay {
			s.DelayWinsVsUnl++
		}
	}
	return s
}

// Render formats the table in the paper's layout: per-flow area/delay/cuts
// plus SLAP/ABC and SLAP/Unlimited ratio columns and a geomean row.
func (t *Table2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II (%s profile) — ABC vs Unlimited vs SLAP\n", t.ProfileName)
	head := fmt.Sprintf("%-12s | %10s %10s %9s | %10s %10s %9s | %10s %10s %9s | %5s %5s %5s | %5s %5s %5s",
		"Circuit",
		"ABC area", "delay", "cuts",
		"Unl area", "delay", "cuts",
		"SLAP area", "delay", "cuts",
		"A r", "D r", "C r",
		"A r", "D r", "C r")
	fmt.Fprintln(&b, head)
	fmt.Fprintln(&b, strings.Repeat("-", len(head)))
	rows := append([]Table2Row(nil), t.Rows...)
	ga, gu, gs := t.Geomeans()
	rows = append(rows, Table2Row{Circuit: "Geomean", ABC: ga, Unl: gu, SLAP: gs})
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s | %10.1f %10.1f %9d | %10.1f %10.1f %9d | %10.1f %10.1f %9d | %5.2f %5.2f %5.2f | %5.2f %5.2f %5.2f\n",
			r.Circuit,
			r.ABC.Area, r.ABC.Delay, r.ABC.Cuts,
			r.Unl.Area, r.Unl.Delay, r.Unl.Cuts,
			r.SLAP.Area, r.SLAP.Delay, r.SLAP.Cuts,
			r.SLAP.Area/r.ABC.Area, r.SLAP.Delay/r.ABC.Delay, float64(r.SLAP.Cuts)/float64(r.ABC.Cuts),
			r.SLAP.Area/r.Unl.Area, r.SLAP.Delay/r.Unl.Delay, float64(r.SLAP.Cuts)/float64(r.Unl.Cuts))
	}
	s := t.Summarise()
	fmt.Fprintf(&b, "\nSLAP vs ABC:       delay x%.2f  area x%.2f  ADP x%.2f  cuts x%.2f  (delay wins %d/%d)\n",
		s.SLAPvsABCDelay, s.SLAPvsABCArea, s.SLAPvsABCADP, s.SLAPvsABCCuts, s.DelayWinsVsABC, len(t.Rows))
	fmt.Fprintf(&b, "SLAP vs Unlimited: delay x%.2f  area x%.2f  cuts x%.2f  (delay wins %d/%d)\n",
		s.SLAPvsUnlDelay, s.SLAPvsUnlArea, s.SLAPvsUnlCuts, s.DelayWinsVsUnl, len(t.Rows))
	fmt.Fprintf(&b, "Unlimited vs ABC:  delay x%.2f  cuts x%.2f\n", s.UnlVsABCDelay, s.UnlVsABCCuts)
	return b.String()
}

// CSV renders the rows as comma-separated values for plotting.
func (t *Table2) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "circuit,abc_area,abc_delay,abc_cuts,unl_area,unl_delay,unl_cuts,slap_area,slap_delay,slap_cuts")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%.2f,%.2f,%d,%.2f,%.2f,%d,%.2f,%.2f,%d\n",
			r.Circuit, r.ABC.Area, r.ABC.Delay, r.ABC.Cuts,
			r.Unl.Area, r.Unl.Delay, r.Unl.Cuts,
			r.SLAP.Area, r.SLAP.Delay, r.SLAP.Cuts)
	}
	return b.String()
}

// SortRowsByName orders rows alphabetically (useful for diffing runs).
func (t *Table2) SortRowsByName() {
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i].Circuit < t.Rows[j].Circuit })
}
