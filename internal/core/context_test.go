package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"slap/internal/circuits"
	"slap/internal/cover"
	"slap/internal/embed"
	"slap/internal/library"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// untrained returns a SLAP instance with deterministic random weights —
// enough for flow tests that do not care about QoR.
func untrained(seed int64) *SLAP {
	m := nn.NewModel(embed.Rows, embed.Cols, 4, 10, rand.New(rand.NewSource(seed)))
	return New(m, library.ASAP7ish())
}

func TestMapContextCancellation(t *testing.T) {
	s := untrained(5)
	g := circuits.TrainRC16()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MapStreamContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("MapStreamContext(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := s.MapLUTStreamContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("MapLUTStreamContext(cancelled) err = %v, want context.Canceled", err)
	}
	opt := slapOptions(ctx, s)
	opt.CaptureCuts = cover.NewSnapshot(g, opt.Policy).Capture
	if _, err := mapper.MapStream(g, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("capturing MapStream(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := s.ClassifyContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyContext(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestMapContextBackgroundMatchesMap checks that polling a live,
// cancellable context between levels and inside the inference workers
// never perturbs the mapping: the result equals the background-context run.
func TestMapContextBackgroundMatchesMap(t *testing.T) {
	s := untrained(5)
	g := circuits.TrainRC16()
	plain, err := s.MapStreamContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	viaCtx, err := s.MapStreamContext(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Area != viaCtx.Area || plain.Delay != viaCtx.Delay {
		t.Errorf("background area=%v delay=%v, live context area=%v delay=%v",
			plain.Area, plain.Delay, viaCtx.Area, viaCtx.Delay)
	}
}

func TestClassifyContextStructure(t *testing.T) {
	s := untrained(9)
	g := circuits.TrainRC16()
	cls, err := s.ClassifyContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Nodes) != g.NumAnds() {
		t.Errorf("classified %d nodes, graph has %d AND nodes", len(cls.Nodes), g.NumAnds())
	}
	sum := 0
	for _, c := range cls.Histogram {
		sum += c
	}
	if sum != cls.TotalCuts || sum == 0 {
		t.Errorf("histogram sums to %d, TotalCuts = %d", sum, cls.TotalCuts)
	}
	// Sequential and parallel classification agree (classes are per-cut
	// deterministic; only the work distribution changes).
	s.Workers = 1
	seq, err := s.ClassifyContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalCuts != cls.TotalCuts {
		t.Errorf("sequential classify found %d cuts, parallel %d", seq.TotalCuts, cls.TotalCuts)
	}
	for i := range seq.Nodes {
		if seq.Nodes[i].Node != cls.Nodes[i].Node || len(seq.Nodes[i].Classes) != len(cls.Nodes[i].Classes) {
			t.Fatalf("node %d: sequential/parallel classification diverged", seq.Nodes[i].Node)
		}
		for j := range seq.Nodes[i].Classes {
			if seq.Nodes[i].Classes[j] != cls.Nodes[i].Classes[j] {
				t.Fatalf("node %d cut %d: class %d (seq) != %d (par)",
					seq.Nodes[i].Node, j, seq.Nodes[i].Classes[j], cls.Nodes[i].Classes[j])
			}
		}
	}
}
