package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/circuits"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// goldenFile holds the recorded digests of the mapping matrix below. They
// were recorded when the repository still carried a second, two-phase
// enumerate-then-match pipeline that agreed with the streaming one on every
// entry, so the file pins the behaviour both pipelines shared.
const goldenFile = "testdata/golden.json"

// goldenModelFile is the small classifier the slap-policy entries use,
// committed so the test never retrains.
const goldenModelFile = "testdata/golden_model.gob"

// goldenDigest is the recorded outcome of one mapping run: a hash of the
// mapped network plus every QoR figure and counter except the enumeration
// peaks, which depend on how long cut storage lives rather than on what
// the mapper computes.
type goldenDigest struct {
	Netlist        string            `json:"netlist,omitempty"`
	AreaBits       string            `json:"area_bits,omitempty"`
	DelayBits      string            `json:"delay_bits,omitempty"`
	CutsConsidered int               `json:"cuts_considered"`
	MatchAttempts  int               `json:"match_attempts,omitempty"`
	LUTs           int               `json:"luts,omitempty"`
	Depth          int32             `json:"depth,omitempty"`
	Rounds         []asicRound       `json:"rounds,omitempty"`
	LUTRounds      []lutRound        `json:"lut_rounds,omitempty"`
	Delta          *cover.DeltaStats `json:"delta,omitempty"`
	Classes        string            `json:"classes,omitempty"`
	Histogram      []int             `json:"histogram,omitempty"`
}

// asicRound and lutRound are the recorded shapes of one round's stats on
// each target (the enumeration peak always zeroed).
type asicRound struct {
	Round          int
	Mode           string
	EstArea        float64
	EstDelay       float64
	CutsConsidered int
	PeakCuts       int
	MatchAttempts  int
}

type lutRound struct {
	Round          int
	Mode           string
	LUTs           int
	Depth          int32
	CutsConsidered int
	PeakCuts       int
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func asicDigest(t testing.TB, r *mapper.Result) goldenDigest {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Netlist.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	d := goldenDigest{
		Netlist:        hex.EncodeToString(sum[:]),
		AreaBits:       floatBits(r.Area),
		DelayBits:      floatBits(r.Delay),
		CutsConsidered: r.CutsConsidered,
		MatchAttempts:  r.MatchAttempts,
	}
	for _, rs := range r.RoundStats {
		d.Rounds = append(d.Rounds, asicRound{Round: rs.Round, Mode: rs.Mode, EstArea: rs.Area, EstDelay: rs.Delay,
			CutsConsidered: rs.CutsConsidered, MatchAttempts: rs.MatchAttempts})
	}
	return d
}

func lutDigest(r *lutmap.Result) goldenDigest {
	h := sha256.New()
	var w [8]byte
	for _, l := range r.LUTs {
		binary.LittleEndian.PutUint32(w[:4], l.Root)
		binary.LittleEndian.PutUint32(w[4:], uint32(len(l.Leaves)))
		h.Write(w[:])
		for _, leaf := range l.Leaves {
			binary.LittleEndian.PutUint32(w[:4], leaf)
			h.Write(w[:4])
		}
		binary.LittleEndian.PutUint64(w[:], uint64(l.TT))
		h.Write(w[:])
	}
	d := goldenDigest{
		Netlist:        hex.EncodeToString(h.Sum(nil)),
		CutsConsidered: r.CutsConsidered,
		LUTs:           r.NumLUTs(),
		Depth:          r.Depth,
	}
	for _, rs := range r.RoundStats {
		d.LUTRounds = append(d.LUTRounds, lutRound{Round: rs.Round, Mode: rs.Mode, LUTs: int(rs.Area), Depth: int32(rs.Delay),
			CutsConsidered: rs.CutsConsidered})
	}
	return d
}

// referenceBatcher puts infer.Reference, the per-sample nn.Model forward
// pass, behind the Batcher interface: the reference the batched paths are
// compared with.
type referenceBatcher struct{ infer.Reference }

func (r referenceBatcher) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.ForwardBatch(xs)
}

// perSample returns a Batcher that classifies through m's per-sample
// forward pass.
func perSample(m *nn.Model) Batcher { return referenceBatcher{infer.Reference{M: m}} }

func loadGoldenModel(t testing.TB) *SLAP {
	t.Helper()
	m, err := nn.LoadFile(goldenModelFile)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, library.ASAP7ish())
}

type goldenCircuit struct {
	name string
	g    *aig.AIG
}

func goldenCircuits() []goldenCircuit {
	return []goldenCircuit{
		{"cla16", circuits.CarryLookaheadAdder(16)},
		{"mul6", circuits.ArrayMultiplier(6)},
		{"rand1", circuits.RandomAIG(1, 16, 250)},
		{"rand2", circuits.RandomAIG(2, 16, 250)},
	}
}

// goldenPolicy returns a fresh instance of the named heuristic policy (the
// shuffle policy is stateful, so every run needs its own).
func goldenPolicy(name string) cuts.Policy {
	switch name {
	case "default":
		return cuts.DefaultPolicy{}
	case "unlimited":
		return cuts.UnlimitedPolicy{}
	case "shuffle":
		return &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(7))}
	}
	return nil
}

// goldenDigests maps the whole matrix and returns one digest per entry:
// every circuit × policy × target × {1 round; 4 rounds over a choice
// view}; per circuit the default policy's schedule knobs (recovery off,
// 2 and 3 rounds, 4 rounds at delay factor 1.25, no buffering) and SLAP at
// 2 rounds without a view; plus ECO delta remaps at the core and mapper
// layers and the classification endpoint.
func goldenDigests(t testing.TB) map[string]goldenDigest {
	t.Helper()
	model := loadGoldenModel(t)
	model.Batch = perSample(model.Model)
	lib := library.ASAP7ish()
	out := map[string]goldenDigest{}
	for _, gc := range goldenCircuits() {
		view := choice.Build(gc.g, choice.Options{})
		for _, pol := range []string{"default", "unlimited", "shuffle"} {
			for _, rounds := range []int{1, 4} {
				mg := gc.g
				var ch cuts.ChoiceSource
				if rounds > 1 {
					mg, ch = view.G, view
				}
				key := fmt.Sprintf("%s/%s/r%d", gc.name, pol, rounds)
				ar, err := mapper.MapStream(mg, mapper.Options{Library: lib, Policy: goldenPolicy(pol), Rounds: rounds, Choices: ch})
				if err != nil {
					t.Fatalf("%s asic: %v", key, err)
				}
				lr, err := lutmap.MapStream(mg, lutmap.Options{Policy: goldenPolicy(pol), Rounds: rounds, Choices: ch})
				if err != nil {
					t.Fatalf("%s lut: %v", key, err)
				}
				out[key+"/asic"] = asicDigest(t, ar)
				out[key+"/lut"] = lutDigest(lr)
			}
		}

		// The schedule knobs without a choice view: the classic schedule with
		// recovery off, 2 and 3 rounds, a relaxed delay target, and an
		// unbuffered netlist, all under the default policy.
		for _, sc := range []struct {
			name   string
			rounds int
			factor float64
			noRec  bool
			fanout int
			lutToo bool
		}{
			{name: "norec", noRec: true, lutToo: true},
			{name: "r2", rounds: 2, lutToo: true},
			{name: "r3", rounds: 3, lutToo: true},
			{name: "r4-df1.25", rounds: 4, factor: 1.25, lutToo: true},
			{name: "nobuf", fanout: -1},
		} {
			key := fmt.Sprintf("%s/default/%s", gc.name, sc.name)
			ar, err := mapper.MapStream(gc.g, mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}, NoAreaRecovery: sc.noRec,
				MaxFanout: sc.fanout, Rounds: sc.rounds, DelayFactor: sc.factor})
			if err != nil {
				t.Fatalf("%s asic: %v", key, err)
			}
			out[key+"/asic"] = asicDigest(t, ar)
			if sc.lutToo {
				lr, err := lutmap.MapStream(gc.g, lutmap.Options{Policy: cuts.DefaultPolicy{}, NoAreaRecovery: sc.noRec,
					Rounds: sc.rounds, DelayFactor: sc.factor})
				if err != nil {
					t.Fatalf("%s lut: %v", key, err)
				}
				out[key+"/lut"] = lutDigest(lr)
			}
		}
	}

	for _, gc := range goldenCircuits()[:2] {
		edited := circuits.PerturbSpan(gc.g, 3, 0.7, 1, 0.05)
		opt := mapper.Options{Library: lib, Policy: cuts.DefaultPolicy{}}
		msnap := cover.NewSnapshot(gc.g, opt.Policy)
		copt := opt
		copt.CaptureCuts = msnap.Capture
		if _, err := mapper.MapStream(gc.g, copt); err != nil {
			t.Fatalf("%s: mapper capture: %v", gc.name, err)
		}
		mres, mst, err := mapper.MapDelta(edited, opt, msnap)
		if err != nil {
			t.Fatalf("%s: mapper delta: %v", gc.name, err)
		}
		d := asicDigest(t, mres)
		d.Delta = mst
		out[gc.name+"/eco/mapper"] = d
	}
	slapGoldenDigests(t, model, out)
	return out
}

// slapGoldenDigests maps every SLAP entry of the matrix with model and adds
// its digest to out: each circuit on both targets at 1 round, at 4 rounds
// over a choice view and at 2 rounds without one (the recovery pool), plus
// the core ECO delta remap and classification of the first two circuits.
func slapGoldenDigests(t testing.TB, model *SLAP, out map[string]goldenDigest) {
	t.Helper()
	ctx := context.Background()
	for _, gc := range goldenCircuits() {
		for _, rounds := range []int{1, 4, 2} {
			key := fmt.Sprintf("%s/slap/r%d", gc.name, rounds)
			s := *model
			s.Rounds, s.Choices = rounds, rounds == 4
			ar, err := s.MapStreamContext(ctx, gc.g)
			if err != nil {
				t.Fatalf("%s asic: %v", key, err)
			}
			lr, err := s.MapLUTStreamContext(ctx, gc.g)
			if err != nil {
				t.Fatalf("%s lut: %v", key, err)
			}
			out[key+"/asic"] = asicDigest(t, ar)
			out[key+"/lut"] = lutDigest(lr)
		}
	}
	for _, gc := range goldenCircuits()[:2] {
		edited := circuits.PerturbSpan(gc.g, 3, 0.7, 1, 0.05)
		s := *model
		opt := mapper.Options{Library: s.Library, Policy: s.Policy(ctx)}
		snap := cover.NewSnapshot(gc.g, opt.Policy)
		copt := opt
		copt.CaptureCuts = snap.Capture
		if _, err := mapper.MapStream(gc.g, copt); err != nil {
			t.Fatalf("%s: capture: %v", gc.name, err)
		}
		res, st, err := mapper.MapDelta(edited, opt, snap)
		if err != nil {
			t.Fatalf("%s: core delta: %v", gc.name, err)
		}
		d := asicDigest(t, res)
		d.Delta = st
		out[gc.name+"/eco/core"] = d

		cl, err := s.ClassifyContext(ctx, gc.g)
		if err != nil {
			t.Fatalf("%s: classify: %v", gc.name, err)
		}
		h := sha256.New()
		for _, nc := range cl.Nodes {
			fmt.Fprintf(h, "%d:%v\n", nc.Node, nc.Classes)
		}
		out[gc.name+"/classify"] = goldenDigest{
			Classes:        hex.EncodeToString(h.Sum(nil)),
			Histogram:      cl.Histogram,
			CutsConsidered: cl.TotalCuts,
		}
	}
}

// TestGoldenDigests maps a fixed matrix of circuits, policies, targets and
// round/choice configurations, plus ECO delta remaps and classification,
// and requires every digest to match the recorded one bit for bit. SLAP
// classifies through the per-sample forward pass (infer.Reference).
func TestGoldenDigests(t *testing.T) {
	want := recordedDigests(t)
	got := goldenDigests(t)
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, okW := want[k]
		g, okG := got[k]
		switch {
		case !okG:
			t.Errorf("%s: recorded but not produced", k)
		case !okW:
			t.Errorf("%s: produced but not recorded", k)
		case !reflect.DeepEqual(w, g):
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(g)
			t.Errorf("%s: digest changed\nwant %s\ngot  %s", k, wj, gj)
		}
	}
}

// TestGoldenDigestsEngine maps every SLAP entry of the matrix again with
// inference through the batched engine, as slap-serve wires it, and
// requires the digests recorded for the per-sample forward pass.
func TestGoldenDigestsEngine(t *testing.T) {
	want := recordedDigests(t)
	model := loadGoldenModel(t)
	model.Batch = infer.NewEngine(model.Model, infer.Options{})
	got := map[string]goldenDigest{}
	slapGoldenDigests(t, model, got)
	// 4 circuits × 3 round settings × 2 targets, plus ECO and classify on 2.
	if len(got) != 28 {
		t.Fatalf("engine run produced %d entries, want 28", len(got))
	}
	for k, g := range got {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: produced but not recorded", k)
		case !reflect.DeepEqual(w, g):
			wj, _ := json.Marshal(w)
			gj, _ := json.Marshal(g)
			t.Errorf("%s: engine digest differs from the recorded one\nwant %s\ngot  %s", k, wj, gj)
		}
	}
}

func recordedDigests(t *testing.T) map[string]goldenDigest {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
