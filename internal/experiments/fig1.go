package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
	"slap/internal/par"
)

// QoRPoint is one mapping solution in the Fig. 1 scatter.
type QoRPoint struct {
	Delay float64
	Area  float64
}

// Fig1 holds the design-space exploration result of paper §III: the QoR
// distribution of random-shuffle mappings of one design, plus the default
// ABC point (the "black star").
type Fig1 struct {
	Design  string
	Points  []QoRPoint
	Default QoRPoint
	// SLAPPoint is the SLAP mapping's QoR when available (the paper
	// discusses where SLAP lands in the distribution).
	SLAPPoint *QoRPoint
}

// RunFig1 generates `p.Fig1Samples` random-shuffle mappings of the design
// and the default-policy reference point.
func RunFig1(p Profile, build func() *aig.AIG, lib *library.Library, progress func(string)) (*Fig1, error) {
	if progress == nil {
		progress = func(string) {}
	}
	g := build()
	progress(fmt.Sprintf("fig1: %s (%d ands), %d samples", g.Name, g.NumAnds(), p.Fig1Samples))

	def, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}})
	if err != nil {
		return nil, fmt.Errorf("fig1: default map: %w", err)
	}
	out := &Fig1{
		Design:  g.Name,
		Default: QoRPoint{Delay: def.Delay, Area: def.Area},
		Points:  make([]QoRPoint, p.Fig1Samples),
	}

	err = par.For(context.Background(), p.Fig1Samples, 0, func(_ context.Context, _, i int) error {
		policy := &cuts.ShufflePolicy{
			Rng:   rand.New(rand.NewSource(p.Seed + int64(i))),
			Limit: p.ShuffleLimit,
		}
		res, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: policy})
		if err != nil {
			return fmt.Errorf("fig1: shuffle map: %w", err)
		}
		out.Points[i] = QoRPoint{Delay: res.Delay, Area: res.Area}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Spread summarises the distribution: min/max delay and area over the
// sampled mappings.
func (f *Fig1) Spread() (minDelay, maxDelay, minArea, maxArea float64) {
	if len(f.Points) == 0 {
		return 0, 0, 0, 0
	}
	minDelay, maxDelay = f.Points[0].Delay, f.Points[0].Delay
	minArea, maxArea = f.Points[0].Area, f.Points[0].Area
	for _, pt := range f.Points {
		if pt.Delay < minDelay {
			minDelay = pt.Delay
		}
		if pt.Delay > maxDelay {
			maxDelay = pt.Delay
		}
		if pt.Area < minArea {
			minArea = pt.Area
		}
		if pt.Area > maxArea {
			maxArea = pt.Area
		}
	}
	return
}

// CSV renders the scatter as delay,area rows, with the reference points
// tagged in a third column ("sample", "abc-default", "slap").
func (f *Fig1) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "delay_ps,area_um2,kind")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%.2f,%.2f,sample\n", pt.Delay, pt.Area)
	}
	fmt.Fprintf(&b, "%.2f,%.2f,abc-default\n", f.Default.Delay, f.Default.Area)
	if f.SLAPPoint != nil {
		fmt.Fprintf(&b, "%.2f,%.2f,slap\n", f.SLAPPoint.Delay, f.SLAPPoint.Area)
	}
	return b.String()
}

// Render summarises the distribution as text (the figure itself is the CSV).
func (f *Fig1) Render() string {
	minD, maxD, minA, maxA := f.Spread()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — QoR distribution of %d random-shuffle mappings of %s\n", len(f.Points), f.Design)
	fmt.Fprintf(&b, "delay range: %.1f .. %.1f ps (%.1f%% spread)\n", minD, maxD, 100*(maxD-minD)/minD)
	fmt.Fprintf(&b, "area  range: %.1f .. %.1f µm² (%.1f%% spread)\n", minA, maxA, 100*(maxA-minA)/minA)
	fmt.Fprintf(&b, "ABC default: delay=%.1f area=%.1f\n", f.Default.Delay, f.Default.Area)
	if f.SLAPPoint != nil {
		fmt.Fprintf(&b, "SLAP:        delay=%.1f area=%.1f\n", f.SLAPPoint.Delay, f.SLAPPoint.Area)
	}
	return b.String()
}
