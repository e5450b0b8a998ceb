package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// The traced run replays a workload's reference inputs in-process through
// each layer's public functions, with spans taken here around the calls:
// the program has no phase timing of its own yet. Layers the workload's
// requests use run on every reference input; the others are probed on the
// inputs of at most probeMaxAnds ANDs, so every layer reports on every
// workload and the paper-scale trace stays short.
const probeMaxAnds = 2000

// refInput is one reference input with the server's answers to it.
type refInput struct {
	design    string
	body      []byte
	g         *aig.AIG
	asic, lut *sample
}

// refInputs collects the reference inputs of a run in send order.
func refInputs(samples []sample) []*refInput {
	var out []*refInput
	byBody := map[*byte]*refInput{}
	for i := range samples {
		s := &samples[i]
		if !s.req.ref || s.err != nil {
			continue
		}
		ri := byBody[&s.req.body[0]]
		if ri == nil {
			ri = &refInput{design: s.req.design, body: s.req.body, g: s.req.g}
			byBody[&s.req.body[0]] = ri
			out = append(out, ri)
		}
		if s.req.target == "lut" {
			ri.lut = s
		} else {
			ri.asic = s
		}
	}
	return out
}

// timedBackend measures the time the inference kernels are busy.
type timedBackend struct {
	infer.Backend
	busy *atomic.Int64
}

func (b timedBackend) ForwardBatch(xs [][]float64) ([][]float64, error) {
	t := time.Now()
	out, err := b.Backend.ForwardBatch(xs)
	b.busy.Add(int64(time.Since(t)))
	return out, err
}

// timedBatcher measures the wall time during which at least one mapping
// worker is blocked in an inference call.
type timedBatcher struct {
	next   core.Batcher
	mu     sync.Mutex
	active int
	since  time.Time
	wall   time.Duration
}

func (b *timedBatcher) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	b.mu.Lock()
	if b.active == 0 {
		b.since = time.Now()
	}
	b.active++
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		if b.active--; b.active == 0 {
			b.wall += time.Since(b.since)
		}
		b.mu.Unlock()
	}()
	return b.next.PredictBatch(ctx, xs)
}

func (b *timedBatcher) total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wall
}

// flushWait sums how long the oldest sample of each coalesced batch waited
// for its flush.
type flushWait struct{ ns atomic.Int64 }

func (f *flushWait) ObserveFlush(fs infer.FlushStats) { f.ns.Add(int64(fs.QueueWait)) }

// tracer accumulates the per-layer numbers of one traced replay.
type tracer struct {
	w     *workload
	model *nn.Model
	lib   *library.Library
	views *choice.Cache
	co    *infer.Coalescer
	batch *timedBatcher
	busy  atomic.Int64
	wait  flushWait

	decode, graft, simulate, prove, enum, embed time.Duration
	asicResidual, lutResidual                   time.Duration
	sta, verify, emit                           time.Duration
	traced                                      time.Duration // decode+choice+map+verify+emit of each reference ASIC request
	untracedMS                                  float64       // the server's elapsed_ms for the same requests
	proved, dropped, considered, peak           int
	matchAttempts, luts                         int
	depths                                      []float64
	failures                                    []string
}

func newTracer(w *workload, model *nn.Model) *tracer {
	t := &tracer{w: w, model: model, lib: library.ASAP7ish(), views: choice.NewCache(0)}
	t.co = infer.NewCoalescer(timedBackend{infer.NewEngine(model, infer.Options{}), &t.busy},
		infer.CoalescerOptions{AdaptiveWait: true, Collector: &t.wait})
	t.batch = &timedBatcher{next: t.co}
	return t
}

func (t *tracer) close() { t.co.Close() }

func (t *tracer) fail(design string, err error) {
	t.failures = append(t.failures, fmt.Sprintf("trace %s: %v", design, err))
}

// slap returns a SLAP mapper configured like the workload's requests, with
// inference routed through the instrumented coalescer.
func (t *tracer) slap() *core.SLAP {
	s := core.New(t.model, t.lib)
	s.Batch = t.batch
	s.Rounds = t.w.flow.rounds
	s.Choices = t.w.flow.choices
	s.Views = t.views
	return s
}

func (t *tracer) policy() cuts.Policy {
	if t.w.flow.policy == "slap" {
		return cuts.UnlimitedPolicy{}
	}
	return cuts.DefaultPolicy{}
}

// replay runs one reference input through every layer.
func (t *tracer) replay(ctx context.Context, ri *refInput, seed int64) error {
	f := t.w.flow
	slapFlow := f.policy == "slap"
	probe := ri.g.NumAnds() <= probeMaxAnds

	t0 := time.Now()
	g, err := aig.Decode("aag", bytes.NewReader(ri.body))
	if err != nil {
		return err
	}
	decode := time.Since(t0)
	t.decode += decode

	mg, pipeline := g, decode
	var ch cuts.ChoiceSource
	if f.choices || probe {
		v, err := t.views.Checkout(ctx, g, choice.Options{})
		if err != nil {
			return err
		}
		ph := v.Phases()
		t.graft += ph.Graft
		t.simulate += ph.Simulate
		t.prove += ph.Prove
		t.proved += v.ProvedMembers()
		t.dropped += v.DroppedMembers()
		if f.choices {
			mg, ch = v.G, v
			pipeline += ph.Graft + ph.Simulate + ph.Prove
		}
	}

	// One streaming enumeration with the workload's policy; the sink embeds
	// every non-trivial cut when the embedding layer is in play, and its
	// time is split out of the enumeration time.
	var emb *embed.Embedder
	var embedT time.Duration
	if slapFlow || probe {
		t0 = time.Now()
		emb = embed.NewEmbedder(mg)
		emb.PrecomputeAll()
		embedT = time.Since(t0)
	}
	x := make([]float64, embed.Size)
	var sinkT time.Duration
	t0 = time.Now()
	res, err := (&cuts.Enumerator{G: mg, Policy: t.policy(), Choices: ch}).RunStream(func(_ int32, nodes []uint32, sets [][]cuts.Cut) error {
		if emb == nil {
			return nil
		}
		s := time.Now()
		for _, n := range nodes {
			for i := range sets[n] {
				if !sets[n][i].IsTrivial(n) {
					emb.CutInto(n, &sets[n][i], x)
				}
			}
		}
		sinkT += time.Since(s)
		return nil
	})
	if err != nil {
		return err
	}
	enumT := time.Since(t0) - sinkT
	embedT += sinkT
	t.enum += enumT
	t.embed += embedT
	t.considered += res.TotalCuts
	t.peak = max(t.peak, res.PeakCuts)

	// The ASIC mapping of the workload's flow; the default-policy workload
	// also probes the SLAP flow on small inputs, so the inference layers
	// report there too.
	var asic *mapper.Result
	inferBefore := t.batch.total()
	t0 = time.Now()
	if slapFlow {
		asic, err = t.slap().MapStreamContext(ctx, g)
	} else {
		asic, err = mapper.MapStream(mg, mapper.Options{Library: t.lib, Policy: t.policy(), Rounds: f.rounds, Choices: ch})
	}
	if err != nil {
		return err
	}
	asicT := time.Since(t0)
	residual := asicT - enumT
	if slapFlow {
		residual -= embedT + t.batch.total() - inferBefore
	} else if probe {
		if _, err := t.slap().MapStreamContext(ctx, g); err != nil {
			return err
		}
	}
	t.asicResidual += residual
	t.matchAttempts += asic.MatchAttempts
	if ri.asic != nil && (asic.Area != ri.asic.resp.Area || asic.Delay != ri.asic.resp.Delay) {
		t.fail(ri.design, fmt.Errorf("in-process ASIC map (area %g, delay %g) differs from the server's (area %g, delay %g)",
			asic.Area, asic.Delay, ri.asic.resp.Area, ri.asic.resp.Delay))
	}

	t0 = time.Now()
	asic.Netlist.STA()
	t.sta += time.Since(t0)
	t0 = time.Now()
	if err := asic.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99))); err != nil {
		t.fail(ri.design, err)
	}
	verifyT := time.Since(t0)
	t.verify += verifyT
	t0 = time.Now()
	if err := asic.Netlist.WriteBLIF(io.Discard); err != nil {
		return err
	}
	emitT := time.Since(t0)
	t.emit += emitT
	if ri.asic != nil {
		t.traced += pipeline + asicT + verifyT + emitT
		t.untracedMS += ri.asic.resp.ElapsedMS
	}

	if f.lut || probe {
		var lut *lutmap.Result
		inferBefore = t.batch.total()
		t0 = time.Now()
		if slapFlow {
			lut, err = t.slap().MapLUTStreamContext(ctx, g)
		} else {
			lut, err = lutmap.MapStream(mg, lutmap.Options{Policy: t.policy(), Rounds: f.rounds, Choices: ch})
		}
		if err != nil {
			return err
		}
		residual := time.Since(t0) - enumT
		if slapFlow {
			residual -= embedT + t.batch.total() - inferBefore
		}
		t.lutResidual += residual
		t.luts += lut.NumLUTs()
		t.depths = append(t.depths, float64(lut.Depth))
		if err := t.checkLUT(ri, g, lut, seed); err != nil {
			t.fail(ri.design, err)
		}
	}
	return nil
}

// checkLUT is the independent check of a LUT answer, which carries no
// netlist: the in-process mapping must simulate like the submitted AIG and
// agree with the server on LUT count and depth.
func (t *tracer) checkLUT(ri *refInput, g *aig.AIG, lut *lutmap.Result, seed int64) error {
	if err := checkEquivalent(g, lut.Simulate, seed); err != nil {
		return fmt.Errorf("lut: %w", err)
	}
	if ri.lut != nil && (ri.lut.resp.LUTs != lut.NumLUTs() || ri.lut.resp.Depth != lut.Depth) {
		return fmt.Errorf("lut: server answered %d LUTs at depth %d, in-process map has %d at depth %d",
			ri.lut.resp.LUTs, ri.lut.resp.Depth, lut.NumLUTs(), lut.Depth)
	}
	return nil
}

// metrics returns the replay's per-layer numbers.
func (t *tracer) metrics() map[string]float64 {
	return map[string]float64{
		"aig.decode_ms":         ms(t.decode),
		"choice.graft_ms":       ms(t.graft),
		"choice.simulate_ms":    ms(t.simulate),
		"choice.prove_ms":       ms(t.prove),
		"choice.proved":         float64(t.proved),
		"choice.dropped":        float64(t.dropped),
		"cuts.enum_ms":          ms(t.enum),
		"cuts.considered":       float64(t.considered),
		"cuts.peak_live":        float64(t.peak),
		"embed.ms":              ms(t.embed),
		"infer.busy_ms":         float64(t.busy.Load()) / 1e6,
		"infer.wait_ms":         float64(t.wait.ns.Load()) / 1e6,
		"mapper.residual_ms":    ms(t.asicResidual),
		"mapper.match_attempts": float64(t.matchAttempts),
		"lutmap.residual_ms":    ms(t.lutResidual),
		"lutmap.luts":           float64(t.luts),
		"lutmap.depth_geomean":  geomean(t.depths),
		"netlist.sta_ms":        ms(t.sta),
		"netlist.verify_ms":     ms(t.verify),
		"netlist.emit_ms":       ms(t.emit),
		"trace.overhead_frac":   ratio(ms(t.traced), t.untracedMS) - 1,
	}
}

// traceReplay replays every reference input and returns the per-layer
// numbers and any check failures.
func traceReplay(ctx context.Context, w *workload, model *nn.Model, refs []*refInput, seed int64) (map[string]float64, []string, error) {
	t := newTracer(w, model)
	defer t.close()
	for _, ri := range refs {
		if err := t.replay(ctx, ri, seed); err != nil {
			return nil, nil, fmt.Errorf("trace %s: %w", ri.design, err)
		}
	}
	return t.metrics(), t.failures, nil
}
