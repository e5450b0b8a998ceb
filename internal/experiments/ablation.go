package experiments

import (
	"fmt"
	"strings"

	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// AblationCell is one (design, sort-attribute) mapping outcome.
type AblationCell struct {
	Delay float64
	Area  float64
}

// Ablation reproduces the §III observation that no single-attribute cut
// sort is consistently best: it maps a subset of designs under each
// single-feature sorting policy and under the vanilla leaves sort.
type Ablation struct {
	// Designs are the evaluated design names (rows).
	Designs []string
	// Policies are the policy names (columns).
	Policies []string
	// Cells[d][p] is the outcome of design d under policy p.
	Cells [][]AblationCell
}

// ablationFeatures are the single attributes evaluated: volume, max leaf
// level, sum of leaf fanouts — each in both directions — against the
// default leaves sort.
var ablationFeatures = []struct {
	feature    int
	descending bool
}{
	{2, false}, {2, true}, // volume
	{4, false}, {4, true}, // maxLeafLevel
	{8, false}, {8, true}, // sumLeafFanout
}

// RunAblation maps the first `numDesigns` profile designs under each
// policy. A small per-node budget makes the sort order actually bind, as in
// the random-shuffle experiments.
func RunAblation(p Profile, lib *library.Library, numDesigns int, progress func(string)) (*Ablation, error) {
	if progress == nil {
		progress = func(string) {}
	}
	designs := Designs(p)
	if numDesigns > 0 && numDesigns < len(designs) {
		designs = designs[:numDesigns]
	}
	policies := []cuts.Policy{cuts.DefaultPolicy{Limit: p.ShuffleLimit}}
	for _, f := range ablationFeatures {
		policies = append(policies, cuts.SingleAttributePolicy{
			Feature:    f.feature,
			Descending: f.descending,
			Limit:      p.ShuffleLimit,
		})
	}

	out := &Ablation{}
	for _, pol := range policies {
		out.Policies = append(out.Policies, pol.Name())
	}
	for _, d := range designs {
		g := d.Build()
		progress(fmt.Sprintf("ablation: %s", d.Name))
		row := make([]AblationCell, len(policies))
		for pi, pol := range policies {
			res, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: pol})
			if err != nil {
				return nil, fmt.Errorf("ablation: %s/%s: %w", d.Name, pol.Name(), err)
			}
			row[pi] = AblationCell{Delay: res.Delay, Area: res.Area}
		}
		out.Designs = append(out.Designs, d.Name)
		out.Cells = append(out.Cells, row)
	}
	return out, nil
}

// BestPolicyPerDesign returns, for each design, the index of the policy
// with the lowest delay.
func (a *Ablation) BestPolicyPerDesign() []int {
	best := make([]int, len(a.Designs))
	for di := range a.Designs {
		bi, bd := 0, a.Cells[di][0].Delay
		for pi := 1; pi < len(a.Policies); pi++ {
			if a.Cells[di][pi].Delay < bd {
				bi, bd = pi, a.Cells[di][pi].Delay
			}
		}
		best[di] = bi
	}
	return best
}

// NoConsistentWinner reports whether different designs prefer different
// sorting policies — the paper's motivating observation.
func (a *Ablation) NoConsistentWinner() bool {
	best := a.BestPolicyPerDesign()
	seen := make(map[int]bool)
	for _, b := range best {
		seen[b] = true
	}
	return len(seen) > 1
}

// Render formats the delay matrix with the per-design winner marked.
func (a *Ablation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§III ablation — delay (ps) per single-attribute sorting policy\n")
	fmt.Fprintf(&b, "%-12s", "circuit")
	for _, p := range a.Policies {
		fmt.Fprintf(&b, " %22s", p)
	}
	fmt.Fprintln(&b)
	best := a.BestPolicyPerDesign()
	for di, d := range a.Designs {
		fmt.Fprintf(&b, "%-12s", d)
		for pi := range a.Policies {
			mark := " "
			if best[di] == pi {
				mark = "*"
			}
			fmt.Fprintf(&b, " %21.1f%s", a.Cells[di][pi].Delay, mark)
		}
		fmt.Fprintln(&b)
	}
	if a.NoConsistentWinner() {
		fmt.Fprintln(&b, "-> no single attribute wins across designs (paper §III observation)")
	} else {
		fmt.Fprintln(&b, "-> one attribute won on every design in this run")
	}
	return b.String()
}
