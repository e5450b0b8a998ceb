package experiments

import (
	"fmt"
	"strings"

	"slap/internal/core"
	"slap/internal/library"
)

// TrainOutcome bundles a trained SLAP instance with its accuracy report —
// experiment §V-B.
type TrainOutcome struct {
	SLAP   *core.SLAP
	Report *core.TrainReport
}

// RunTraining trains the model under the profile (experiment §V-B) and
// returns both the SLAP instance (reused by Table II and Fig. 5) and the
// accuracy report. Like every SLAP instance, it classifies through the
// batched engine, whose results are bit-identical to per-sample inference.
func RunTraining(p Profile, lib *library.Library, progress func(string)) (*TrainOutcome, error) {
	if progress == nil {
		progress = func(string) {}
	}
	progress(fmt.Sprintf("training: %d maps/circuit, %d epochs, %d filters",
		p.TrainMaps, p.TrainEpochs, p.Filters))
	s, rep, err := core.Train(core.TrainOptions{
		Library:        lib,
		MapsPerCircuit: p.TrainMaps,
		Epochs:         p.TrainEpochs,
		Filters:        p.Filters,
		Seed:           p.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &TrainOutcome{SLAP: s, Report: rep}, nil
}

// RenderAccuracy formats the §V-B accuracy numbers.
func (t *TrainOutcome) RenderAccuracy() string {
	r := t.Report
	var b strings.Builder
	fmt.Fprintf(&b, "Model accuracy (§V-B)\n")
	fmt.Fprintf(&b, "dataset: %d cut datapoints (%d train / %d val)\n",
		r.Samples, r.TrainSamples, r.ValSamples)
	fmt.Fprintf(&b, "class histogram: %v\n", r.ClassHistogram)
	fmt.Fprintf(&b, "10-class accuracy: %.1f%%  (paper: ~34%%)\n", 100*r.MultiClassAccuracy)
	fmt.Fprintf(&b, "binary keep/drop accuracy (threshold 6): %.1f%%  (paper: 93.4%%)\n",
		100*r.BinaryAccuracy)
	return b.String()
}

// Fig5 holds the permutation-importance results.
type Fig5 struct {
	Importances []core.Importance
}

// RunFig5 computes permutation feature importance over the training run's
// validation set (paper §V-D).
func RunFig5(p Profile, t *TrainOutcome, progress func(string)) *Fig5 {
	if progress == nil {
		progress = func(string) {}
	}
	progress(fmt.Sprintf("fig5: %d permutation rounds over %d validation samples",
		p.ImportanceRounds, len(t.Report.ValX)))
	imps := core.PermutationImportance(t.SLAP.Model, t.Report.ValX, t.Report.ValY,
		p.ImportanceRounds, p.Seed+17)
	return &Fig5{Importances: imps}
}

// Render draws the importances as a text bar chart sorted by impact.
func (f *Fig5) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — permutation feature importance (accuracy drop when permuted)\n")
	maxDrop := 0.0
	for _, imp := range f.Importances {
		if imp.MultiClassDrop > maxDrop {
			maxDrop = imp.MultiClassDrop
		}
	}
	for _, imp := range f.Importances {
		bar := 0
		if maxDrop > 0 {
			bar = int(40 * imp.MultiClassDrop / maxDrop)
			if bar < 0 {
				bar = 0
			}
		}
		fmt.Fprintf(&b, "%-22s %7.4f |%s\n", imp.Name, imp.MultiClassDrop, strings.Repeat("#", bar))
	}
	return b.String()
}

// CSV renders name,multiclass_drop,binary_drop rows.
func (f *Fig5) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "feature,multiclass_drop,binary_drop")
	for _, imp := range f.Importances {
		fmt.Fprintf(&b, "%s,%.6f,%.6f\n", imp.Name, imp.MultiClassDrop, imp.BinaryDrop)
	}
	return b.String()
}
