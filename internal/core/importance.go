package core

import (
	"math/rand"
	"sort"

	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/nn"
)

// Importance is one feature's permutation-importance score (paper Fig. 5):
// the accuracy degradation when the feature is randomly permuted across the
// validation samples, averaged over several rounds. Higher means the model
// leans on the feature more.
type Importance struct {
	// Name is the feature (group) name.
	Name string
	// MultiClassDrop is the mean drop in 10-class accuracy.
	MultiClassDrop float64
	// BinaryDrop is the mean drop in keep/drop (binary) accuracy.
	BinaryDrop float64
}

// PermutationImportance permutes each cut-embedding feature group for
// `rounds` rounds and measures the accuracy degradation of the model on
// (xs, ys). Results are sorted by descending multi-class drop. It panics if
// a row of xs does not have the model's input length.
func PermutationImportance(model *nn.Model, xs [][]float64, ys []int, rounds int, seed int64) []Importance {
	if rounds <= 0 {
		rounds = 10
	}
	eng := infer.NewEngine(model, infer.Options{})
	baseMulti, baseBin, err := accuracies(eng, xs, ys, DefaultAvgMax)
	if err != nil {
		panic(err)
	}
	groups := embed.FeatureGroups()
	rng := rand.New(rand.NewSource(seed))

	// Working copy so permutations never touch the caller's data.
	work := make([][]float64, len(xs))
	for i, x := range xs {
		work[i] = append([]float64(nil), x...)
	}
	perm := make([]int, len(xs))

	out := make([]Importance, 0, len(groups))
	for _, g := range groups {
		var dMulti, dBin float64
		for r := 0; r < rounds; r++ {
			for i := range perm {
				perm[i] = i
			}
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			// Swap in permuted values for this group's positions.
			for i := range work {
				src := xs[perm[i]]
				for _, p := range g.Positions {
					work[i][p] = src[p]
				}
			}
			multi, bin, _ := accuracies(eng, work, ys, DefaultAvgMax) // xs's row lengths: no error
			dMulti += baseMulti - multi
			dBin += baseBin - bin
			// Restore.
			for i := range work {
				for _, p := range g.Positions {
					work[i][p] = xs[i][p]
				}
			}
		}
		out = append(out, Importance{
			Name:           g.Name,
			MultiClassDrop: dMulti / float64(rounds),
			BinaryDrop:     dBin / float64(rounds),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].MultiClassDrop > out[j].MultiClassDrop
	})
	return out
}

// accuracies returns Model.Accuracy and Model.BinaryAccuracy on (xs, ys)
// from one ForwardClasses pass of eng (the classes of Model.PredictClass),
// or its error for a row of the wrong length.
func accuracies(eng *infer.Engine, xs [][]float64, ys []int, threshold int) (multi, bin float64, err error) {
	if len(xs) == 0 {
		return 0, 0, nil
	}
	classes := make([]int, len(xs))
	if err := eng.ForwardClasses(xs, classes); err != nil {
		return 0, 0, err
	}
	correct, correctBin := 0, 0
	for i, class := range classes {
		if class == ys[i] {
			correct++
		}
		if (class <= threshold) == (ys[i] <= threshold) {
			correctBin++
		}
	}
	n := float64(len(xs))
	return float64(correct) / n, float64(correctBin) / n, nil
}
