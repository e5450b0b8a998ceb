package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"slap/internal/par"
)

// Adam's step size and moment parameters, the standard defaults. They are
// typed so that each is rounded to float64 once, where it is declared: an
// untyped 0.9 would fold 1-beta1 to exactly 0.1 at compile time, while the
// float64 arithmetic the trained models were produced with gives
// 0.09999999999999997780.
const (
	learningRate float64 = 1e-3
	beta1        float64 = 0.9
	beta2        float64 = 0.999
	eps          float64 = 1e-8
)

// TrainConfig configures Adam training.
type TrainConfig struct {
	// Epochs is the number of passes over the training set (paper: 50).
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// Seed drives minibatch shuffling.
	Seed int64
	// Workers is the number of parallel gradient workers (0 = GOMAXPROCS).
	Workers int
	// Verbose prints one progress line per epoch to standard output.
	Verbose bool
}

func (c *TrainConfig) fill() {
	if c.Epochs == 0 {
		c.Epochs = 50
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	c.Workers = par.Workers(c.Workers)
}

// adamState holds first/second moment estimates for every parameter.
type adamState struct {
	m, v *grads
	t    int
}

// EpochStats records per-epoch training progress.
type EpochStats struct {
	Epoch    int
	Loss     float64
	Accuracy float64
}

// Train fits the model on (xs, ys) with Adam and returns per-epoch stats.
// Inputs are used as-is; call FitNormalization first.
func (m *Model) Train(xs [][]float64, ys []int, cfg TrainConfig) ([]EpochStats, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, fmt.Errorf("nn: need equal, non-empty inputs and labels (got %d/%d)", len(xs), len(ys))
	}
	for _, x := range xs {
		if err := m.checkInput(x); err != nil {
			return nil, err
		}
	}
	for _, y := range ys {
		if y < 0 || y >= m.Classes {
			return nil, fmt.Errorf("nn: label %d out of range [0,%d)", y, m.Classes)
		}
	}
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := &adamState{m: m.newGrads(), v: m.newGrads()}

	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}

	var stats []EpochStats
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var correct int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			loss, good, g := m.batchGradient(xs, ys, batch, cfg.Workers)
			epochLoss += loss
			correct += good
			m.adamStep(opt, g)
		}
		s := EpochStats{
			Epoch:    epoch,
			Loss:     epochLoss / float64(len(order)),
			Accuracy: float64(correct) / float64(len(order)),
		}
		stats = append(stats, s)
		if cfg.Verbose {
			fmt.Printf("epoch %3d: loss=%.4f acc=%.4f\n", s.Epoch, s.Loss, s.Accuracy)
		}
	}
	return stats, nil
}

// batchGradient computes the mean gradient over a non-empty minibatch on
// min(workers, len(batch)) stripes; workers is at least 1.
func (m *Model) batchGradient(xs [][]float64, ys []int, batch []int, workers int) (float64, int, *grads) {
	workers = min(workers, len(batch))
	type partial struct {
		g       *grads
		loss    float64
		correct int
	}
	parts := make([]partial, workers)
	// Stripe s is batch[s], batch[s+workers], ...: every partial gradient
	// covers the same samples on every run, so the summed gradient, and
	// the trained model's bytes, do not depend on scheduling. No visit
	// fails and the context is never canceled, so For returns nil.
	_ = par.For(context.Background(), workers, workers, func(_ context.Context, _, s int) error {
		p := &parts[s]
		p.g = m.newGrads()
		a := m.newActs()
		for bi := s; bi < len(batch); bi += workers {
			idx := batch[bi]
			m.forward(xs[idx], a)
			prob := a.probs[ys[idx]]
			if prob < 1e-15 {
				prob = 1e-15
			}
			p.loss += -math.Log(prob)
			best, bc := math.Inf(-1), 0
			for c, pv := range a.probs {
				if pv > best {
					best, bc = pv, c
				}
			}
			if bc == ys[idx] {
				p.correct++
			}
			m.backward(a, ys[idx], p.g)
		}
		return nil
	})
	total := parts[0].g
	loss := parts[0].loss
	correct := parts[0].correct
	for w := 1; w < workers; w++ {
		total.add(parts[w].g)
		loss += parts[w].loss
		correct += parts[w].correct
	}
	total.scale(1 / float64(len(batch)))
	return loss, correct, total
}

// adamStep applies one Adam update.
func (m *Model) adamStep(opt *adamState, g *grads) {
	opt.t++
	bc1 := 1 - math.Pow(beta1, float64(opt.t))
	bc2 := 1 - math.Pow(beta2, float64(opt.t))
	update := func(w, gw, mw, vw []float64) {
		for i := range w {
			mw[i] = beta1*mw[i] + (1-beta1)*gw[i]
			vw[i] = beta2*vw[i] + (1-beta2)*gw[i]*gw[i]
			mhat := mw[i] / bc1
			vhat := vw[i] / bc2
			w[i] -= learningRate * mhat / (math.Sqrt(vhat) + eps)
		}
	}
	update(m.ConvW, g.convW, opt.m.convW, opt.v.convW)
	update(m.ConvB, g.convB, opt.m.convB, opt.v.convB)
	update(m.DenseW, g.denseW, opt.m.denseW, opt.v.denseW)
	update(m.DenseB, g.denseB, opt.m.denseB, opt.v.denseB)
}
