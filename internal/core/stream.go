// Fused SLAP mapping: enumeration, ML cut filtering and Boolean matching
// run as one streaming pipeline over the level wavefront. SLAP's keep
// decision is a cuts.LevelFilter: the shared cover engine runs it on each
// completed level, in parallel over the batched inference workers, and
// feeds the kept lists to the unchanged matching and cover selection of
// either target before the enumerator retires the level's cut storage —
// so the full cut universe is never materialised. Filtering decisions are
// per-node deterministic, so the result equals that of the paper's
// separate enumerate, classify and map stages.
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
// mapping over a choice view. The context is polled inside the inference
// workers on every level, so a deadline or dropped client aborts the run
// promptly.
func (s *SLAP) MapStreamContext(ctx context.Context, g *aig.AIG) (*mapper.Result, error) {
	return s.mapping().MapASIC(ctx, g, s.Policy(ctx), nil)
}

// MapLUTStreamContext runs the SLAP flow against the K-LUT FPGA mapper
// instead of the standard-cell mapper — the extension the paper's
// introduction points to ("the findings of this work can be extended to
// benefit FPGA-mapping ... as the nature of the problem is the same"). The
// same ML-filtered cut lists feed the same cover engine under the LUT cost
// model.
func (s *SLAP) MapLUTStreamContext(ctx context.Context, g *aig.AIG) (*lutmap.Result, error) {
	return s.mapping().MapLUT(ctx, g, s.Policy(ctx))
}

// mapping is the request the Map* methods forward: policy slap with s's
// Rounds, Choices, Views and Workers.
func (s *SLAP) mapping() *Mapping {
	m := &Mapping{Request: Request{Policy: "slap", Rounds: s.Rounds, Choices: s.Choices},
		Library: s.Library, SLAP: s, Workers: s.Workers}
	if s.Views != nil {
		// A nil *choice.Cache in the interface would be a non-nil source.
		m.Views = s.Views
	}
	return m
}

// Policy returns SLAP's keep decision as a cut policy for one mapping
// call: mapper.MapStream, lutmap.MapStream and their delta remaps run it
// on every level, over UnlimitedPolicy enumeration (bounded by
// cuts.MergeCap), with inference polling ctx.
func (s *SLAP) Policy(ctx context.Context) cuts.LevelFilter {
	return slapPolicy{s: s, ctx: ctx, workers: s.Workers}
}

// slapPolicy is the cuts.LevelFilter of one mapping call; its inference
// runs on workers goroutines (0 = GOMAXPROCS).
type slapPolicy struct {
	cuts.UnlimitedPolicy
	s       *SLAP
	ctx     context.Context
	workers int
}

// Name implements cuts.Policy.
func (slapPolicy) Name() string { return "slap" }

// Sig implements cuts.LevelFilter.
func (p slapPolicy) Sig() string { return p.s.ConfigSig() }

// Begin implements cuts.LevelFilter. It takes the embedder, the inference
// scratches and, when s.Batch is nil, the call's engine before enumeration
// fans out. sync.Pool keeps a returned scratch in the P that returned it,
// and after a parallel level the enumerating goroutine often resumes on
// another P, which cannot take it: taken at the first level, the
// scratches (and their grown slabs) would be allocated afresh on about
// every other map.
func (p slapPolicy) Begin(g *aig.AIG) (func(nodes []uint32, sets, kept, extras [][]cuts.Cut) error, func()) {
	s := p.s.withBatch()
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()
	scratches := inferScratches(p.workers)
	filter := func(nodes []uint32, sets, kept, extras [][]cuts.Cut) error {
		return s.filterNodes(p.ctx, emb, nodes, sets, kept, extras, scratches)
	}
	return filter, func() { putScratches(scratches) }
}
