// Package core implements SLAP, the paper's primary contribution: a
// supervised-learning replacement for the cut sorting and filtering
// heuristics of a priority-cuts technology mapper.
//
// The flow mirrors the paper's framework (Fig. 4):
//
//  1. Training (§IV-B): random-shuffle mappings of two 16-bit adders
//     produce cut datapoints labelled with delay deciles; a small CNN
//     (internal/nn) learns to predict a cut's QoR class.
//  2. Mapping (§IV-C): all k-cuts of the subject graph are enumerated,
//     embedded and classified; per node, the predicted classes drive a
//     good/average/trivial keep decision; the pruned cut lists feed the
//     unmodified mapper. The paper runs these as separate prepare_map,
//     inference and read_cuts stages because ABC and Python are separate
//     processes; the keep decision is per node, so here they run as one
//     pipeline over the enumeration wavefront (stream.go).
//  3. Explainability (§V-D): permutation feature importance over the
//     validation set.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/dataset"
	"slap/internal/embed"
	"slap/internal/library"
	"slap/internal/nn"
)

// Default QoR-class thresholds (paper §IV-C): classes 0..3 are "good",
// 4..6 "average", above "bad".
const (
	DefaultGoodMax = 3
	DefaultAvgMax  = 6
)

// SLAP bundles a trained cut classifier with the filtering thresholds and
// the target library.
type SLAP struct {
	// Model is the trained cut classifier.
	Model *nn.Model
	// Library is the target standard-cell library.
	Library *library.Library
	// GoodMax and AvgMax are the class thresholds of the keep decision.
	GoodMax, AvgMax int
	// MergeCap bounds the exhaustive pre-filter enumeration (0 = default).
	MergeCap int
	// Workers bounds parallelism for both cut enumeration (the level
	// wavefront of cuts.Enumerator) and inference (0 = GOMAXPROCS,
	// 1 = fully sequential).
	Workers int
	// Batch, when set, routes inference through a batched backend: each
	// worker submits a whole node's cut embeddings as one PredictBatch call
	// instead of running the per-sample Model forward pass per cut. Both
	// *infer.Engine and *infer.Coalescer satisfy it; nil keeps the
	// per-sample path. The batched kernels accumulate in the per-sample
	// order, so filtering decisions — and hence mapping QoR — are identical
	// either way.
	Batch Batcher
	// Pool, when set, lets MapStreamContext and MapLUTStreamContext recycle
	// cut-arena storage across runs of the same graph shape.
	Pool *cuts.Pool
	// Rounds selects multi-round mapping: round 1 is the delay-optimal
	// (depth-optimal for LUTs) pass, later rounds re-select covers by area
	// flow under the round-1 required times, and the final round adds
	// exact-area refinement. Values <= 1 keep today's single-pass flow.
	// Recovery rounds draw from a wider cut pool (the average-class cuts the
	// keep decision would have dropped), scored by the same single inference
	// pass — no extra model evaluations per round.
	Rounds int
	// DelayFactor relaxes the recovery rounds' required times: the delay
	// target is round-1 delay times this factor. Values < 1 (including the
	// zero value) clamp to 1.0, i.e. no delay degradation is allowed.
	DelayFactor float64
	// Choices maps over a choice view of the subject graph instead of the
	// graph itself: functionally equivalent variants (internal/opt rewrites)
	// are grafted in and the enumerator matches the union of each
	// equivalence class's cuts (internal/choice). The view shares the base
	// graph's PIs and POs, so results verify against the original graph.
	Choices bool
	// ChoiceOpts tunes choice-view construction when Choices is set (zero
	// value = the choice package defaults). Its Workers field is a pure
	// scheduling knob; every other field changes the built view and is part
	// of ConfigSig.
	ChoiceOpts choice.Options
	// Views, when non-nil, caches built choice views content-addressed by
	// (graph, ChoiceOpts) with singleflight dedup, so repeat Choices
	// mappings of the same design skip view construction entirely. Nil
	// builds a fresh view per call.
	Views *choice.Cache
}

// inferScratch is one worker's reusable embedding storage: a single-sample
// buffer for the per-sample path and a growable slab for whole-node batch
// submissions. CutInto overwrites every position and the model never
// retains its input, so reuse across cuts and nodes is exact.
type inferScratch struct {
	x    []float64
	slab []float64
	xs   [][]float64
}

func (sc *inferScratch) batch(n int) ([]float64, [][]float64) {
	if cap(sc.slab) < n*embed.Size {
		sc.slab = make([]float64, n*embed.Size)
	}
	if cap(sc.xs) < n {
		sc.xs = make([][]float64, n)
	}
	return sc.slab[:n*embed.Size], sc.xs[:n]
}

// Batcher classifies batches of cut embeddings. It is satisfied by
// infer.Engine (one pass per call) and infer.Coalescer (passes of bounded
// size, reported to a metrics collector); core declares the interface
// locally so it does not depend on internal/infer.
type Batcher interface {
	// PredictBatch returns one probability vector per input, or an error
	// (e.g. ctx done, backend closed) that fails the whole mapping call.
	PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error)
}

// argmaxClass mirrors nn.Model.PredictClass exactly (first-wins on ties) so
// batched and per-sample classification agree on every input.
func argmaxClass(probs []float64) int {
	best, bi := math.Inf(-1), 0
	for c, p := range probs {
		if p > best {
			best, bi = p, c
		}
	}
	return bi
}

// New wraps a (typically deserialised) model and a library into a SLAP
// instance with the paper's default thresholds.
func New(model *nn.Model, lib *library.Library) *SLAP {
	return &SLAP{
		Model:   model,
		Library: lib,
		GoodMax: DefaultGoodMax,
		AvgMax:  DefaultAvgMax,
	}
}

// TrainOptions configures end-to-end model training.
type TrainOptions struct {
	// Library is the target cell library (required).
	Library *library.Library
	// Circuits are the training designs; nil uses the paper's two 16-bit
	// adders (ripple-carry and carry-lookahead).
	Circuits []*aig.AIG
	// MapsPerCircuit is the number of random-shuffle mappings per circuit
	// (0 = 400).
	MapsPerCircuit int
	// Epochs is the number of training epochs (0 = 50, as in the paper).
	Epochs int
	// Filters is the convolution width (0 = 128, as in the paper).
	Filters int
	// Seed drives data generation, splitting and initialisation.
	Seed int64
	// ValFraction is the held-out fraction (0 = 0.2).
	ValFraction float64
	// Metric selects the QoR metric that labels training cuts (default:
	// delay, as in the paper; area and ADP are supported per §IV-B).
	Metric dataset.Metric
	// Dataset, when set, skips data generation entirely and trains on the
	// provided samples — the hand-off point for genjob's sharded,
	// fault-tolerant sweeps (slap-train -shards / -resume).
	Dataset *dataset.Dataset
	// Verbose prints per-epoch progress.
	Verbose bool
}

// TrainReport summarises a training run (paper §V-B).
type TrainReport struct {
	// Samples is the dataset size; TrainSamples/ValSamples the split sizes.
	Samples, TrainSamples, ValSamples int
	// ClassHistogram counts samples per QoR class.
	ClassHistogram []int
	// MultiClassAccuracy is the 10-class validation accuracy (paper: ~34%).
	MultiClassAccuracy float64
	// BinaryAccuracy is the keep/drop validation accuracy with the paper's
	// threshold of class 6 (paper: 93.4%).
	BinaryAccuracy float64
	// History holds per-epoch training stats.
	History []nn.EpochStats
	// ValX and ValY retain the validation set for explainability runs.
	ValX [][]float64
	ValY []int
}

// Train generates training data, fits the classifier and returns the SLAP
// instance plus an accuracy report.
func Train(opt TrainOptions) (*SLAP, *TrainReport, error) {
	if opt.Library == nil {
		return nil, nil, fmt.Errorf("core: TrainOptions.Library is required")
	}
	circuitsList := opt.Circuits
	if circuitsList == nil {
		circuitsList = []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()}
	}
	maps := opt.MapsPerCircuit
	if maps == 0 {
		maps = 400
	}
	epochs := opt.Epochs
	if epochs == 0 {
		epochs = 50
	}
	filters := opt.Filters
	if filters == 0 {
		filters = 128
	}
	valFrac := opt.ValFraction
	if valFrac == 0 {
		valFrac = 0.2
	}

	ds := opt.Dataset
	if ds == nil {
		var err error
		ds, err = dataset.Generate(dataset.Config{
			Circuits:       circuitsList,
			Library:        opt.Library,
			MapsPerCircuit: maps,
			Seed:           opt.Seed,
			Metric:         opt.Metric,
		})
		if err != nil {
			return nil, nil, err
		}
	} else if ds.Len() == 0 {
		return nil, nil, fmt.Errorf("core: TrainOptions.Dataset is empty")
	}
	train, val := ds.Split(1-valFrac, opt.Seed+1)

	rng := rand.New(rand.NewSource(opt.Seed + 2))
	model := nn.NewModel(embed.Rows, embed.Cols, filters, ds.Classes, rng)
	model.FitNormalization(train.X)
	history, err := model.Train(train.X, train.Y, nn.TrainConfig{
		Epochs:  epochs,
		Seed:    opt.Seed + 3,
		Verbose: opt.Verbose,
	})
	if err != nil {
		return nil, nil, err
	}

	report := &TrainReport{
		Samples:            ds.Len(),
		TrainSamples:       train.Len(),
		ValSamples:         val.Len(),
		ClassHistogram:     ds.ClassHistogram(),
		MultiClassAccuracy: model.Accuracy(val.X, val.Y),
		BinaryAccuracy:     model.BinaryAccuracy(val.X, val.Y, DefaultAvgMax),
		History:            history,
		ValX:               val.X,
		ValY:               val.Y,
	}
	s := &SLAP{
		Model:   model,
		Library: opt.Library,
		GoodMax: DefaultGoodMax,
		AvgMax:  DefaultAvgMax,
	}
	return s, report, nil
}

// inferScratches returns one fresh scratch per inference worker: Workers,
// or GOMAXPROCS when unset.
func (s *SLAP) inferScratches() []*inferScratch {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scratches := make([]*inferScratch, workers)
	for i := range scratches {
		scratches[i] = &inferScratch{}
	}
	return scratches
}

// inferNodes is the one inference worker loop: visit(ctx, i, sc) runs once
// for every index i of nodes, each worker with its own scratch. Workers
// claim the next unvisited index from a shared counter, and the calling
// goroutine is one of them, so a worker that is slowed or descheduled (by
// the garbage collector, or another process on its core) holds up only
// the node it is on while the others finish the level. Every visit writes
// only its own node's results, so which worker takes a node never changes
// the output. The first error cancels the siblings — e.g. a batching
// backend closing mid-map — and is returned, as is ctx's error once it is
// done. One worker, or a single node, runs inline.
func (s *SLAP) inferNodes(ctx context.Context, nodes []uint32, scratches []*inferScratch, visit func(ctx context.Context, i int, sc *inferScratch) error) error {
	workers := min(len(scratches), len(nodes))
	if workers <= 1 {
		for i := range nodes {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := visit(ctx, i, scratches[0]); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	work := func(sc *inferScratch) {
		for cctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(nodes) {
				return
			}
			if err := visit(cctx, i, sc); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
				return
			}
		}
	}
	for _, sc := range scratches[1:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(sc)
		}()
	}
	work(scratches[0])
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// filterNodes applies the ML keep decision to the listed AND nodes: out[n]
// receives the kept list of sets[n] (out may be sets itself), and a
// non-nil extras receives each node's recovery pool (see filterNode).
func (s *SLAP) filterNodes(ctx context.Context, emb *embed.Embedder, nodes []uint32, sets, out, extras [][]cuts.Cut, scratches []*inferScratch) error {
	return s.inferNodes(ctx, nodes, scratches, func(ctx context.Context, i int, sc *inferScratch) error {
		n := nodes[i]
		kept, ex, err := s.filterNode(ctx, emb, n, sets[n], sc)
		if err != nil {
			return err
		}
		out[n] = kept
		if extras != nil {
			extras[n] = ex
		}
		return nil
	})
}

// nonTrivialIdx lists the indices of the non-trivial cuts of n within cs.
func nonTrivialIdx(n uint32, cs []cuts.Cut) []int {
	idx := make([]int, 0, len(cs))
	for i := range cs {
		if !cs[i].IsTrivial(n) {
			idx = append(idx, i)
		}
	}
	return idx
}

// batchProbs embeds the cuts selected by idx into the worker's reusable
// slab and classifies them with a single PredictBatch submission, so the
// batching backend sees a whole node's cuts at once. PredictBatch blocks
// until the batch is computed and the backend keeps no reference to the
// inputs afterwards, so the slab is free for the worker's next node.
func (s *SLAP) batchProbs(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, idx []int, sc *inferScratch) ([][]float64, error) {
	slab, xs := sc.batch(len(idx))
	for k, i := range idx {
		x := slab[k*embed.Size : (k+1)*embed.Size]
		emb.CutInto(n, &cs[i], x)
		xs[k] = x
	}
	return s.Batch.PredictBatch(ctx, xs)
}

// classifyCuts predicts the QoR class of every non-trivial cut of n:
// classes[k] belongs to cs[idx[k]]. With a Batcher set, the node's
// embeddings go out as one batch; otherwise each cut runs the per-sample
// forward pass.
func (s *SLAP) classifyCuts(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, sc *inferScratch) (idx, classes []int, err error) {
	idx = nonTrivialIdx(n, cs)
	classes = make([]int, len(idx))
	if len(idx) == 0 {
		return idx, classes, nil
	}
	if s.Batch == nil {
		if sc.x == nil {
			sc.x = make([]float64, embed.Size)
		}
		for k, i := range idx {
			emb.CutInto(n, &cs[i], sc.x)
			classes[k] = s.Model.PredictClass(sc.x)
		}
		return idx, classes, nil
	}
	probs, err := s.batchProbs(ctx, emb, n, cs, idx, sc)
	if err != nil {
		return nil, nil, err
	}
	for k, p := range probs {
		classes[k] = argmaxClass(p)
	}
	return idx, classes, nil
}

// filterNode applies the paper's keep decision to one node's cut list:
// classify every cut; keep the "good" cuts (class <= GoodMax) when any
// exist, otherwise the "average" cuts (class <= AvgMax), otherwise only the
// trivial cut. Kept cuts are ordered by predicted class — the learned
// priority-cuts ranking.
//
// When Rounds > 1 it also returns the node's recovery pool: the average
// cuts shadowed by good ones, class-ranked. Bad-class cuts never enter
// either list, and the pool reuses the classes of the single inference
// pass above — the per-round pruning adds no model evaluations.
func (s *SLAP) filterNode(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, sc *inferScratch) ([]cuts.Cut, []cuts.Cut, error) {
	idx, classes, err := s.classifyCuts(ctx, emb, n, cs, sc)
	if err != nil {
		return nil, nil, err
	}
	type scored struct {
		cut   cuts.Cut
		class int
	}
	var good, avg []scored
	for k, i := range idx {
		switch c := classes[k]; {
		case c <= s.GoodMax:
			good = append(good, scored{cut: cs[i], class: c})
		case c <= s.AvgMax:
			avg = append(avg, scored{cut: cs[i], class: c})
		}
	}
	keep, rest := good, avg
	if len(keep) == 0 {
		keep, rest = avg, nil
	}
	if len(keep) == 0 {
		// No acceptable cut: only the trivial cut survives; the mapper's
		// elementary-fanin-cut fallback keeps the node coverable.
		return []cuts.Cut{trivialOf(n, cs)}, nil, nil
	}
	byClass := func(l []scored) func(i, j int) bool {
		return func(i, j int) bool { return l[i].class < l[j].class }
	}
	sort.SliceStable(keep, byClass(keep))
	out := make([]cuts.Cut, 0, len(keep)+1)
	for _, k := range keep {
		out = append(out, k.cut)
	}
	out = append(out, trivialOf(n, cs))
	var extra []cuts.Cut
	if s.Rounds > 1 && len(rest) > 0 {
		sort.SliceStable(rest, byClass(rest))
		extra = make([]cuts.Cut, len(rest))
		for i := range rest {
			extra[i] = rest[i].cut
		}
	}
	return out, extra, nil
}

func trivialOf(n uint32, cs []cuts.Cut) cuts.Cut {
	for i := range cs {
		if cs[i].IsTrivial(n) {
			return cs[i]
		}
	}
	// The enumerator always appends the trivial cut; this is unreachable
	// for enumerator-produced lists but keeps the function total.
	return cuts.Cut{Leaves: []uint32{n}}
}

// choiceGraph returns the graph to map and the choice source to enumerate
// with: the subject graph itself when Choices is off, or a choice view
// over it (which shares g's PI/PO interface, so downstream verification
// against g is unchanged) — checked out of the Views cache when one is
// configured, built fresh otherwise. Construction honours ctx: a dropped
// client or expired deadline aborts the build mid-phase instead of
// burning the full SAT budget.
func (s *SLAP) choiceGraph(ctx context.Context, g *aig.AIG) (*aig.AIG, cuts.ChoiceSource, error) {
	if !s.Choices {
		return g, nil, nil
	}
	var v *choice.View
	var err error
	if s.Views != nil {
		v, err = s.Views.Checkout(ctx, g, s.ChoiceOpts)
	} else {
		v, err = choice.BuildContext(ctx, g, s.ChoiceOpts)
	}
	if err != nil {
		return nil, nil, err
	}
	return v.G, v, nil
}

// NodeCutClasses lists the predicted QoR class of every non-trivial cut of
// one AND node, in the enumeration order of the cut set.
type NodeCutClasses struct {
	// Node is the subject-graph node.
	Node uint32
	// Classes holds one predicted class (0..Classes-1) per non-trivial cut.
	Classes []int
}

// Classification is the result of ClassifyContext — the inference half of
// the SLAP flow without the keep decision or the mapper, served by the
// slap-serve /v1/classify endpoint.
type Classification struct {
	// Nodes lists per-node cut classes in ascending node order.
	Nodes []NodeCutClasses
	// Histogram counts classified cuts per QoR class.
	Histogram []int
	// TotalCuts is the number of classified (non-trivial) cuts.
	TotalCuts int
}

// ClassifyContext enumerates all k-cuts of g and predicts each non-trivial
// cut's QoR class, without filtering or mapping. It materialises the whole
// cut universe first and then classifies it in one pass, so the
// inference workers meet no per-level barrier. Parallelism follows
// s.Workers; cancellation follows ctx.
func (s *SLAP) ClassifyContext(ctx context.Context, g *aig.AIG) (*Classification, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers}
	res := enum.Run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()

	nodes := andNodes(g)
	perNode := make([][]int, len(nodes))
	err := s.inferNodes(ctx, nodes, s.inferScratches(), func(ctx context.Context, i int, sc *inferScratch) error {
		n := nodes[i]
		_, classes, err := s.classifyCuts(ctx, emb, n, res.Sets[n], sc)
		perNode[i] = classes
		return err
	})
	if err != nil {
		return nil, err
	}

	out := &Classification{Histogram: make([]int, s.Model.Classes)}
	for i, n := range nodes {
		out.Nodes = append(out.Nodes, NodeCutClasses{Node: n, Classes: perNode[i]})
		for _, c := range perNode[i] {
			out.Histogram[c]++
			out.TotalCuts++
		}
	}
	return out, nil
}

// andNodes lists g's AND nodes in ascending (topological) order.
func andNodes(g *aig.AIG) []uint32 {
	nodes := make([]uint32, 0, g.NumAnds())
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			nodes = append(nodes, n)
		}
	}
	return nodes
}
