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
	"math/rand"
	"sync"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/dataset"
	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/nn"
	"slap/internal/par"
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
	// Workers bounds parallelism for both cut enumeration (the level
	// wavefront of cuts.Enumerator) and inference (0 = GOMAXPROCS,
	// 1 = fully sequential).
	Workers int
	// Batch classifies cuts: each inference worker submits a whole node's
	// cut embeddings as one call, ClassifyBatch when Batch has it (see
	// classBatcher) and PredictBatch otherwise. Both *infer.Engine and
	// *infer.Coalescer have both; nil classifies through an infer.Engine
	// over Model built for each mapping or classification call. The
	// engine's kernels accumulate in the per-sample order and fall back to
	// the softmax on near ties, so its classes — and hence filtering
	// decisions and mapping QoR — are those of Model.PredictClass.
	Batch Batcher
	// Rounds, Choices and Views configure MapStreamContext and
	// MapLUTStreamContext, which map through a Mapping of policy slap:
	// Rounds is its Request.Rounds, Choices its Request.Choices (a choice
	// view under the choice package's default options), and Views, when
	// non-nil, the cache its views are checked out of. Requests that set
	// a delay factor or choice options map through a Mapping directly.
	Rounds  int
	Choices bool
	Views   *choice.Cache
}

// inferScratch is one worker's reusable filter-step storage: a growable
// slab for whole-node batch submissions, the node's cut indices, classes
// and per-class counts, and the slab the worker's kept lists and recovery
// pools are carved from. CutInto overwrites every position and no backend
// retains its input, so reuse across nodes is exact.
type inferScratch struct {
	slab    []float64
	xs      [][]float64
	idx     []int
	classes []int
	counts  []int
	// kept holds the lists filterNode returned since the last resetKept:
	// they stay valid until then, and the cover engine and snapshots copy
	// them within the level (see cuts.LevelFilter).
	kept []cuts.Cut
}

// scratchPool keeps inference scratches, and so their grown slabs, across
// mapping calls.
var scratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

// takeKept returns n cuts of the kept-list slab. A slab too small for them
// is left to the lists already handed out and replaced by one at least
// twice its size, so a worker's slab settles at its largest level.
func (sc *inferScratch) takeKept(n int) []cuts.Cut {
	used := len(sc.kept)
	if used+n > cap(sc.kept) {
		sc.kept = make([]cuts.Cut, 0, max(2*cap(sc.kept), n))
		used = 0
	}
	sc.kept = sc.kept[:used+n]
	return sc.kept[used : used+n : used+n]
}

// resetKept hands the whole kept-list slab out again: every list taken
// since the last reset becomes invalid.
func (sc *inferScratch) resetKept() { sc.kept = sc.kept[:0] }

// batch returns the slab and row views for n embeddings. Each grows to at
// least twice its size when short, so a worker whose nodes carry ever more
// cuts reallocates a logarithmic number of times.
func (sc *inferScratch) batch(n int) ([]float64, [][]float64) {
	if need := n * embed.Size; cap(sc.slab) < need {
		sc.slab = make([]float64, max(2*cap(sc.slab), need))
	}
	if cap(sc.xs) < n {
		sc.xs = make([][]float64, max(2*cap(sc.xs), n))
	}
	return sc.slab[:n*embed.Size], sc.xs[:n]
}

// Batcher classifies batches of cut embeddings. It is satisfied by
// infer.Engine (one pass per call) and infer.Coalescer (passes of bounded
// size, reported to a metrics collector). Being an interface, it lets a
// caller wrap the backend, to time it or to put the per-sample
// infer.Reference behind it. A Batcher that also has ClassifyBatch (see
// classBatcher) is asked for classes only.
type Batcher interface {
	// PredictBatch returns one probability vector per input, or an error
	// (e.g. ctx done, backend closed) that fails the whole mapping call.
	PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error)
}

// classBatcher is a Batcher that writes each input's class into a
// caller-owned slice, with no probability vectors, as infer.Engine and
// infer.Coalescer do. A wrapper that has only PredictBatch classifies
// through infer.ArgmaxClass over its probabilities instead.
type classBatcher interface {
	// ClassifyBatch writes the class of xs[i] to classes[i], or returns
	// an error that fails the whole mapping call.
	ClassifyBatch(ctx context.Context, xs [][]float64, classes []int) error
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

// valFraction is the share of the dataset Train holds out for validation.
const valFraction float64 = 0.2

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
	train, val := ds.Split(1-valFraction, opt.Seed+1)

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

	multi, bin, err := accuracies(infer.NewEngine(model, infer.Options{}), val.X, val.Y, DefaultAvgMax)
	if err != nil {
		return nil, nil, err
	}
	report := &TrainReport{
		Samples:            ds.Len(),
		TrainSamples:       train.Len(),
		ValSamples:         val.Len(),
		ClassHistogram:     ds.ClassHistogram(),
		MultiClassAccuracy: multi,
		BinaryAccuracy:     bin,
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

// withBatch returns s when it has a Batcher, and otherwise a copy that
// classifies through an infer.Engine over s.Model built for one call.
func (s *SLAP) withBatch() *SLAP {
	if s.Batch != nil {
		return s
	}
	c := *s
	c.Batch = infer.NewEngine(s.Model, infer.Options{})
	return &c
}

// inferScratches returns one pooled scratch per inference worker (see
// par.Workers). Hand them back with putScratches once no worker uses them.
func inferScratches(workers int) []*inferScratch {
	scratches := make([]*inferScratch, par.Workers(workers))
	for i := range scratches {
		scratches[i] = scratchPool.Get().(*inferScratch)
	}
	return scratches
}

// putScratches returns scratches to the pool with their kept-list slabs
// cleared: a pooled scratch must not hold the Leaves of an arena that the
// run has handed back, or the arena could never be collected.
func putScratches(scratches []*inferScratch) {
	for _, sc := range scratches {
		clear(sc.kept[:cap(sc.kept)])
		sc.resetKept()
		scratchPool.Put(sc)
	}
}

// filterNodes applies the ML keep decision to the listed AND nodes: out[n]
// receives the kept list of sets[n] (out may be sets itself), and a
// non-nil extras receives each node's recovery pool (see filterNode). The
// lists are carved from the scratches' kept-list slabs, which it resets:
// those of its previous call become invalid.
func (s *SLAP) filterNodes(ctx context.Context, emb *embed.Embedder, nodes []uint32, sets, out, extras [][]cuts.Cut, scratches []*inferScratch) error {
	for _, sc := range scratches {
		sc.resetKept()
	}
	return par.For(ctx, len(nodes), len(scratches), func(ctx context.Context, w, i int) error {
		n := nodes[i]
		kept, ex, err := s.filterNode(ctx, emb, n, sets[n], scratches[w], extras != nil)
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

// embedCuts embeds the cuts selected by idx into the worker's reusable
// slab. Every classifying call blocks until its batch is computed and the
// backend keeps no reference to the inputs afterwards, so the slab is free
// for the worker's next node.
func embedCuts(emb *embed.Embedder, n uint32, cs []cuts.Cut, idx []int, sc *inferScratch) [][]float64 {
	slab, xs := sc.batch(len(idx))
	for k, i := range idx {
		x := slab[k*embed.Size : (k+1)*embed.Size]
		emb.CutInto(n, &cs[i], x)
		xs[k] = x
	}
	return xs
}

// classifyCuts predicts the QoR class of every non-trivial cut of n:
// classes[k] belongs to cs[idx[k]]. The node's embeddings go out to
// s.Batch as one batch, through ClassifyBatch when it has it. Both slices
// live in sc until the worker's next call.
func (s *SLAP) classifyCuts(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, sc *inferScratch) (idx, classes []int, err error) {
	idx = sc.idx[:0]
	for i := range cs {
		if !cs[i].IsTrivial(n) {
			idx = append(idx, i)
		}
	}
	sc.idx = idx
	if cap(sc.classes) < len(idx) {
		sc.classes = make([]int, max(2*cap(sc.classes), len(idx)))
	}
	classes = sc.classes[:len(idx)]
	if len(idx) == 0 {
		return idx, classes, nil
	}
	xs := embedCuts(emb, n, cs, idx, sc)
	if cb, ok := s.Batch.(classBatcher); ok {
		if err := cb.ClassifyBatch(ctx, xs, classes); err != nil {
			return nil, nil, err
		}
		return idx, classes, nil
	}
	probs, err := s.Batch.PredictBatch(ctx, xs)
	if err != nil {
		return nil, nil, err
	}
	for k, p := range probs {
		classes[k] = infer.ArgmaxClass(p)
	}
	return idx, classes, nil
}

// filterNode applies the paper's keep decision to one node's cut list:
// classify every cut; keep the "good" cuts (class <= GoodMax) when any
// exist, otherwise the "average" cuts (class <= AvgMax), otherwise only the
// trivial cut. Kept cuts are ordered by predicted class — the learned
// priority-cuts ranking.
//
// With pool set (multi-round mapping) it also returns the node's recovery
// pool: the average cuts shadowed by good ones, class-ranked. Bad-class
// cuts never enter either list, and the pool reuses the classes of the
// single inference pass above — the per-round pruning adds no model
// evaluations.
//
// Both lists are carved from sc's kept-list slab and stay valid until its
// next resetKept; everything else lives in sc too.
func (s *SLAP) filterNode(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, sc *inferScratch, pool bool) ([]cuts.Cut, []cuts.Cut, error) {
	idx, classes, err := s.classifyCuts(ctx, emb, n, cs, sc)
	if err != nil {
		return nil, nil, err
	}
	nc := s.Model.Classes
	if cap(sc.counts) < nc {
		sc.counts = make([]int, nc)
	}
	counts := sc.counts[:nc]
	clear(counts)
	for _, c := range classes {
		counts[c]++
	}
	goodHi := min(s.GoodMax, nc-1)
	avgLo, avgHi := max(s.GoodMax+1, 0), min(s.AvgMax, nc-1)
	good, avg := sumRange(counts, 0, goodHi), sumRange(counts, avgLo, avgHi)
	keepLo, keepHi, kept := 0, goodHi, good
	if kept == 0 {
		keepLo, keepHi, kept = avgLo, avgHi, avg
	}
	// With no acceptable cut, only the trivial cut survives; the mapper's
	// elementary-fanin-cut fallback keeps the node coverable.
	out := sc.takeKept(kept + 1)
	placeByClass(out, cs, idx, classes, counts, keepLo, keepHi)
	out[kept] = trivialOf(n, cs)
	var extra []cuts.Cut
	if pool && good > 0 && avg > 0 {
		extra = sc.takeKept(avg)
		placeByClass(extra, cs, idx, classes, counts, avgLo, avgHi)
	}
	return out, extra, nil
}

func sumRange(counts []int, lo, hi int) int {
	n := 0
	for c := lo; c <= hi; c++ {
		n += counts[c]
	}
	return n
}

// placeByClass writes the cuts cs[idx[k]] whose class lies in [lo, hi] to
// dst in ascending class order, keeping enumeration order within a class:
// the order a stable sort by class gives. counts holds the number of cuts
// per class on entry; its [lo, hi] range is consumed.
func placeByClass(dst, cs []cuts.Cut, idx, classes, counts []int, lo, hi int) {
	off := 0
	for c := lo; c <= hi; c++ {
		off, counts[c] = off+counts[c], off
	}
	for k, c := range classes {
		if c >= lo && c <= hi {
			dst[counts[c]] = cs[idx[k]]
			counts[c]++
		}
	}
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
// cut universe first (Run copies each level out of the arena) and then
// classifies it in one pass, so the inference workers meet no per-level
// barrier. Parallelism follows s.Workers; cancellation follows ctx.
func (s *SLAP) ClassifyContext(ctx context.Context, g *aig.AIG) (*Classification, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s = s.withBatch()
	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, Workers: s.Workers}
	res := enum.Run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()

	nodes := andNodes(g)
	perNode := make([][]int, len(nodes))
	scratches := inferScratches(s.Workers)
	defer putScratches(scratches)
	err := par.For(ctx, len(nodes), len(scratches), func(ctx context.Context, w, i int) error {
		n := nodes[i]
		_, classes, err := s.classifyCuts(ctx, emb, n, res.Sets[n], scratches[w])
		perNode[i] = append(make([]int, 0, len(classes)), classes...)
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
