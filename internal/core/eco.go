package core

import (
	"fmt"

	"slap/internal/cuts"
)

// ConfigSig identifies everything about this SLAP instance that shapes the
// mapping result: model and library identity, the keep thresholds, the
// enumeration merge cap and the multi-round/choice knobs. The merge cap is
// a constant, but it stays in the string: the result cache charges each
// entry its signature's length.
// Workers, Batch and Views are deliberately excluded — they change
// scheduling, never results (the batched kernels accumulate in per-sample
// order). Identity is by pointer, so signatures — and the cache keys built
// from them — are valid within one process only, which is exactly the
// mapcache's lifetime.
func (s *SLAP) ConfigSig() string {
	rounds := s.Rounds
	if rounds < 1 {
		rounds = 1
	}
	df := s.DelayFactor
	if df < 1 {
		df = 1
	}
	ch := "off"
	if s.Choices {
		// The choice-options content signature (Workers excluded, defaults
		// folded in) — two configs that build different views must never
		// share a cached mapping result.
		ch = s.ChoiceOpts.Sig()
	}
	return fmt.Sprintf("slap/model=%p/lib=%s@%p/good=%d/avg=%d/mc=%d/rounds=%d/df=%g/choices=%s",
		s.Model, s.Library.Name, s.Library, s.GoodMax, s.AvgMax, cuts.MergeCap, rounds, df, ch)
}
