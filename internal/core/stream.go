// Fused SLAP mapping: enumeration, ML cut filtering and Boolean matching
// run as one streaming pipeline over the level wavefront. Each completed
// level is classified in parallel by the inference workers (per-sample or
// batched), the filtered lists feed the incremental mapper on the spot,
// and the enumerator retires the level's cut storage — so the full cut
// universe is never materialised. Filtering decisions are per-node
// deterministic, so the result equals that of the paper's separate
// enumerate, classify and map stages.
package core

import (
	"context"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/lutmap"
	"slap/internal/mapper"
)

// MapStreamContext runs the full SLAP flow on g: filter cuts with the
// model, then map with the unchanged mapper (Boolean matching, arrival
// update and cover selection untouched, as in the paper), fused so that
// matching consumes each level's ML-filtered cuts as the wavefront
// produces them. With Rounds/Choices set, the flow becomes multi-round
// mapping over a choice view. The context is polled between levels and
// inside the inference workers, so a deadline or dropped client aborts the
// run promptly.
func (s *SLAP) MapStreamContext(ctx context.Context, g *aig.AIG) (*mapper.Result, error) {
	r, err := mapFiltered(ctx, s, g, func(mg *aig.AIG) (target[*mapper.Result], error) {
		return mapper.NewStream(mg, mapper.Options{Library: s.Library, Rounds: s.Rounds, DelayFactor: s.DelayFactor})
	})
	if err != nil {
		return nil, err
	}
	r.PolicyName = "slap"
	return r, nil
}

// MapLUTStreamContext runs the SLAP flow against the K-LUT FPGA mapper
// instead of the standard-cell mapper — the extension the paper's
// introduction points to ("the findings of this work can be extended to
// benefit FPGA-mapping ... as the nature of the problem is the same"). The
// same ML-filtered cut lists feed the same cover engine under the LUT cost
// model.
func (s *SLAP) MapLUTStreamContext(ctx context.Context, g *aig.AIG) (*lutmap.Result, error) {
	r, err := mapFiltered(ctx, s, g, func(mg *aig.AIG) (target[*lutmap.Result], error) {
		return lutmap.NewStream(mg, lutmap.Options{Rounds: s.Rounds, DelayFactor: s.DelayFactor}), nil
	})
	if err != nil {
		return nil, err
	}
	r.PolicyName = "slap"
	return r, nil
}

// target is a mapping target's stream: mapper.Stream or lutmap.Stream.
type target[R any] interface {
	ConsumeNode(n uint32, cs []cuts.Cut)
	ConsumeExtras(n uint32, cs []cuts.Cut)
	SetPeakCuts(peak int)
	Finish() (R, error)
}

// mapFiltered runs the SLAP flow on g (or its choice view) into the stream
// that open prepares for the mapped graph.
func mapFiltered[R any](ctx context.Context, s *SLAP, g *aig.AIG, open func(*aig.AIG) (target[R], error)) (R, error) {
	var zero R
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	mg, ch, err := s.choiceGraph(ctx, g)
	if err != nil {
		return zero, err
	}
	st, err := open(mg)
	if err != nil {
		return zero, err
	}
	res, err := s.streamFiltered(ctx, mg, ch, func(n uint32, kept, extras []cuts.Cut) {
		st.ConsumeNode(n, kept)
		if extras != nil {
			st.ConsumeExtras(n, extras)
		}
	})
	if err != nil {
		return zero, err
	}
	st.SetPeakCuts(res.PeakCuts)
	r, err := st.Finish()
	if err != nil {
		return zero, err
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	return r, nil
}

// streamFiltered drives the fused enumerate→classify→consume pipeline:
// exhaustive streaming enumeration (UnlimitedPolicy, optionally enriched
// across a choice source), per-level parallel ML filtering with per-worker
// reusable embedding buffers, and a sequential consume of the filtered
// lists in ascending node order. The consumer's second list is the node's
// recovery pool — nil unless Rounds > 1 (see filterNode). When s.Pool is
// set, cut storage is checked out of the arena pool and recycled across
// runs of the same graph.
func (s *SLAP) streamFiltered(ctx context.Context, g *aig.AIG, ch cuts.ChoiceSource, consume func(uint32, []cuts.Cut, []cuts.Cut)) (*cuts.Result, error) {
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()

	scratches := s.inferScratches()
	defer putScratches(scratches)
	filtered := make([][]cuts.Cut, g.NumNodes())
	var extras [][]cuts.Cut
	if s.Rounds > 1 {
		extras = make([][]cuts.Cut, g.NumNodes())
	}

	var arena *cuts.Arena
	if s.Pool != nil {
		arena = s.Pool.Get(g)
		defer s.Pool.Put(arena)
	}
	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers, Arena: arena, Choices: ch}

	res, err := enum.RunStream(func(_ int32, nodes []uint32, sets [][]cuts.Cut) error {
		if err := s.filterNodes(ctx, emb, nodes, sets, filtered, extras, scratches); err != nil {
			return err
		}
		// The filtered lists hold durable leaves only after the consumer
		// copies them; consume before the enumerator retires the level.
		for _, n := range nodes {
			var ex []cuts.Cut
			if extras != nil {
				ex, extras[n] = extras[n], nil
			}
			consume(n, filtered[n], ex)
			filtered[n] = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
