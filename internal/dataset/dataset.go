// Package dataset generates labelled training data for the SLAP cut
// classifier following paper §IV-B: many random-shuffle mappings of the
// training circuits are produced, each mapping's delay is measured by STA,
// and every cut used in the final cover becomes one datapoint whose label
// is the mapping's delay decile (class 0 = fastest mappings, class 9 =
// slowest).
//
// The sweep is shard-granular: GenerateOutcomes runs any contiguous range
// of one circuit's mappings and Assemble reassembles per-circuit outcome
// slices into the final dataset. Generate is the single-process
// composition of the two; internal/genjob composes them into a
// fault-tolerant, resumable multi-shard runner. Because labelling
// normalises over a circuit's full QoR distribution, the split is
// deterministic: the same master seed always yields the same dataset no
// matter how the sweep was sharded.
package dataset

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/library"
	"slap/internal/mapper"
	"slap/internal/par"
)

// Dataset is a labelled set of cut embeddings.
type Dataset struct {
	// X holds flat 15×10 cut embeddings.
	X [][]float64
	// Y holds QoR class labels in [0, Classes).
	Y []int
	// Classes is the number of QoR classes (10 in the paper).
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// ClassHistogram counts samples per class.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.Classes)
	for _, y := range d.Y {
		h[y]++
	}
	return h
}

// Save serialises the dataset with encoding/gob.
func (d *Dataset) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(d)
}

// Load deserialises a dataset written by Save.
func Load(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decoding: %w", err)
	}
	if len(d.X) != len(d.Y) {
		return nil, fmt.Errorf("dataset: %d inputs but %d labels", len(d.X), len(d.Y))
	}
	for _, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return nil, fmt.Errorf("dataset: label %d out of range [0,%d)", y, d.Classes)
		}
	}
	return &d, nil
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	defer f.Close()
	d, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s: %w", path, err)
	}
	return d, nil
}

// Split partitions the dataset into train/validation subsets after a
// seeded shuffle. frac is the training fraction (e.g. 0.8); it is clamped
// to [0, 1], so frac 0 yields an empty training set and frac 1 an empty
// validation set.
func (d *Dataset) Split(frac float64, seed int64) (train, val *Dataset) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	cut := int(frac * float64(len(order)))
	mk := func(idx []int) *Dataset {
		out := &Dataset{Classes: d.Classes}
		for _, i := range idx {
			out.X = append(out.X, d.X[i])
			out.Y = append(out.Y, d.Y[i])
		}
		return out
	}
	return mk(order[:cut]), mk(order[cut:])
}

// Config drives training-data generation.
type Config struct {
	// Circuits are the training designs (the paper uses two 16-bit adder
	// architectures).
	Circuits []*aig.AIG
	// Library is the target cell library.
	Library *library.Library
	// MapsPerCircuit is the number of random-shuffle mappings per circuit.
	MapsPerCircuit int
	// Classes is the number of QoR classes (0 = 10).
	Classes int
	// Seed drives the shuffle policies.
	Seed int64
	// ShuffleLimit is the per-node cut budget of the shuffle policy
	// (0 = DefaultShuffleLimit). QoR diversity under shuffling requires the
	// budget to actually truncate: the paper's 250-cut ABC budget binds on
	// its full-size designs, but on the 16-bit training adders every list
	// fits, so a tighter budget is needed to reproduce the same dispersion
	// mechanism (see DESIGN.md).
	ShuffleLimit int
	// Workers bounds mapping parallelism (0 = GOMAXPROCS).
	Workers int
	// Metric selects the label metric (default MetricDelay).
	Metric Metric
	// MaxFailures is the number of failed mappings tolerated across the
	// whole sweep. Failed mappings become Skipped outcomes: they contribute
	// no samples and are excluded from label normalisation. Assemble aborts
	// once more than MaxFailures mappings were skipped, so the default of 0
	// preserves the historical fail-on-first-error behaviour.
	MaxFailures int
}

// DefaultShuffleLimit is the per-node cut budget used for random-shuffle
// data generation when Config.ShuffleLimit is zero.
const DefaultShuffleLimit = 16

// Metric selects which QoR figure labels the training cuts. The paper
// optimises delay; §IV-B notes that area or ADP "could equally be used".
type Metric int

// Supported labelling metrics.
const (
	MetricDelay Metric = iota
	MetricArea
	MetricADP
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricArea:
		return "area"
	case MetricADP:
		return "adp"
	default:
		return "delay"
	}
}

// MapOutcome is one random mapping's harvest: the QoR figure that will
// label its cuts and the embeddings of the cuts used in its cover. A
// Skipped outcome records a tolerated mapping failure (Err keeps the
// message); it carries no samples and does not enter label normalisation.
type MapOutcome struct {
	QoR     float64
	Samples [][]float64
	Skipped bool
	Err     string
}

// Normalize validates the config and returns a copy with every zero-value
// default filled in. Shard runners normalize before planning so that a
// resumed run agrees with the original about Classes and ShuffleLimit no
// matter which were spelled explicitly.
func (cfg Config) Normalize() (Config, error) { return cfg.withDefaults() }

// withDefaults validates cfg and fills the zero-value defaults in place.
func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.Circuits) == 0 {
		return cfg, fmt.Errorf("dataset: no training circuits")
	}
	if cfg.Library == nil {
		return cfg, fmt.Errorf("dataset: library is required")
	}
	if cfg.MapsPerCircuit <= 0 {
		return cfg, fmt.Errorf("dataset: MapsPerCircuit must be positive")
	}
	if cfg.Classes == 0 {
		cfg.Classes = 10
	}
	if cfg.Classes < 0 {
		return cfg, fmt.Errorf("dataset: Classes must be positive")
	}
	if cfg.ShuffleLimit == 0 {
		cfg.ShuffleLimit = DefaultShuffleLimit
	}
	cfg.Workers = par.Workers(cfg.Workers)
	return cfg, nil
}

// circuitSeed derives the per-circuit seed base from the master seed. The
// per-mapping policy seed is circuitSeed + map index, which is what makes
// any contiguous mapping range reproducible in isolation.
func circuitSeed(master int64, circuit int) int64 {
	return master + int64(circuit)*1_000_003
}

// Generate runs the random mappings and returns the labelled dataset.
func Generate(cfg Config) (*Dataset, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	all := make([][]MapOutcome, len(cfg.Circuits))
	for ci, g := range cfg.Circuits {
		outcomes, err := GenerateOutcomes(context.Background(), cfg, ci, 0, cfg.MapsPerCircuit)
		if err != nil {
			return nil, fmt.Errorf("dataset: circuit %s: %w", g.Name, err)
		}
		all[ci] = outcomes
	}
	return Assemble(cfg, all)
}

// GenerateOutcomes runs the mappings [start, end) of one circuit's
// random-shuffle sweep and returns their outcomes in map-index order. A
// mapping failure does not abort the range: it is recorded as a Skipped
// outcome and accounted against Config.MaxFailures later, at Assemble.
// The result depends only on (cfg.Seed, circuit, map index), never on
// start/end or Workers, so a sweep may be cut into shards freely.
func GenerateOutcomes(ctx context.Context, cfg Config, circuit, start, end int) ([]MapOutcome, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if circuit < 0 || circuit >= len(cfg.Circuits) {
		return nil, fmt.Errorf("dataset: circuit index %d out of range [0,%d)", circuit, len(cfg.Circuits))
	}
	if start < 0 || end > cfg.MapsPerCircuit || start >= end {
		return nil, fmt.Errorf("dataset: map range [%d,%d) invalid for %d maps", start, end, cfg.MapsPerCircuit)
	}
	g := cfg.Circuits[circuit]
	seed := circuitSeed(cfg.Seed, circuit)

	// A shared arena pool lets all but the first few checkouts reuse cut
	// storage outright; one spare arena keeps a full complement available
	// while a finished mapping's arena is in flight back to the pool.
	pool := cuts.NewPool(cfg.Workers + 1)
	outcomes := make([]MapOutcome, end-start)
	err = par.For(ctx, len(outcomes), cfg.Workers, func(_ context.Context, _, i int) error {
		outcomes[i] = runOneMap(g, cfg, pool, seed+int64(start+i))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}

// runOneMap executes one random-shuffle mapping and harvests its cuts.
func runOneMap(g *aig.AIG, cfg Config, pool *cuts.Pool, policySeed int64) MapOutcome {
	policy := &cuts.ShufflePolicy{
		Rng:   rand.New(rand.NewSource(policySeed)),
		Limit: cfg.ShuffleLimit,
	}
	// Workers: 1 — the mappings themselves already saturate the worker
	// pool, and the shuffle policy's RNG sequence requires sequential
	// enumeration anyway, so labels depend only on (seed, circuit, index).
	res, err := mapper.MapStream(g, mapper.Options{Library: cfg.Library, Policy: policy, Workers: 1, Pool: pool})
	if err != nil {
		return MapOutcome{Skipped: true, Err: err.Error()}
	}
	emb := embed.NewEmbedder(g)
	samples := make([][]float64, 0, len(res.Cover))
	for _, ce := range res.Cover {
		samples = append(samples, emb.Cut(ce.Node, &ce.Cut))
	}
	var qor float64
	switch cfg.Metric {
	case MetricArea:
		qor = res.Area
	case MetricADP:
		qor = res.ADP()
	default:
		qor = res.Delay
	}
	return MapOutcome{QoR: qor, Samples: samples}
}

// Assemble labels per-circuit outcome slices and concatenates them into
// the final dataset, producing exactly what a single-process Generate
// with the same Config would have. outcomes must hold one complete
// MapsPerCircuit-long slice per circuit, in circuit order: labelling
// normalises over each circuit's full QoR distribution, so it can only
// run once every outcome of that circuit is present. More than
// cfg.MaxFailures skipped outcomes abort the assembly.
func Assemble(cfg Config, outcomes [][]MapOutcome) (*Dataset, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(outcomes) != len(cfg.Circuits) {
		return nil, fmt.Errorf("dataset: %d outcome slices for %d circuits", len(outcomes), len(cfg.Circuits))
	}
	skipped, firstErr := 0, ""
	for ci, o := range outcomes {
		if len(o) != cfg.MapsPerCircuit {
			return nil, fmt.Errorf("dataset: circuit %d has %d outcomes, want %d", ci, len(o), cfg.MapsPerCircuit)
		}
		for _, mo := range o {
			if mo.Skipped {
				skipped++
				if firstErr == "" {
					firstErr = mo.Err
				}
			}
		}
	}
	if skipped > cfg.MaxFailures {
		if firstErr == "" {
			firstErr = "unknown"
		}
		return nil, fmt.Errorf("dataset: %d mappings failed (tolerance %d), first: %s",
			skipped, cfg.MaxFailures, firstErr)
	}
	ds := &Dataset{Classes: cfg.Classes}
	for _, o := range outcomes {
		labelOutcomes(ds, o, cfg.Classes)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("dataset: no samples generated")
	}
	return ds, nil
}

// labelOutcomes converts mapping QoR values to class labels. The paper
// normalises each cut's label by the circuit's delay distribution; we use
// min-max normalisation into `classes` deciles so all classes are populated
// (pure max-normalisation would collapse everything into the top deciles —
// see DESIGN.md). Skipped outcomes are excluded from both the
// normalisation span and the output.
func labelOutcomes(ds *Dataset, outcomes []MapOutcome, classes int) {
	first := true
	var minQ, maxQ float64
	for _, o := range outcomes {
		if o.Skipped {
			continue
		}
		if first {
			minQ, maxQ = o.QoR, o.QoR
			first = false
		}
		if o.QoR < minQ {
			minQ = o.QoR
		}
		if o.QoR > maxQ {
			maxQ = o.QoR
		}
	}
	if first {
		return // every mapping of this circuit was skipped
	}
	span := maxQ - minQ
	for _, o := range outcomes {
		if o.Skipped {
			continue
		}
		label := 0
		if span > 0 {
			label = int(float64(classes) * (o.QoR - minQ) / span)
			if label >= classes {
				label = classes - 1
			}
		}
		for _, x := range o.Samples {
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, label)
		}
	}
}
