package dataset

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/library"
)

func sampleDataset(n, classes int) *Dataset {
	d := &Dataset{Classes: classes}
	for i := 0; i < n; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, i%classes)
	}
	return d
}

func TestSplitEdgeCases(t *testing.T) {
	d := sampleDataset(10, 3)

	t.Run("frac 0", func(t *testing.T) {
		train, val := d.Split(0, 1)
		if train.Len() != 0 || val.Len() != 10 {
			t.Errorf("frac 0: train %d val %d, want 0/10", train.Len(), val.Len())
		}
	})
	t.Run("frac 1", func(t *testing.T) {
		train, val := d.Split(1, 1)
		if train.Len() != 10 || val.Len() != 0 {
			t.Errorf("frac 1: train %d val %d, want 10/0", train.Len(), val.Len())
		}
	})
	t.Run("frac out of range clamps", func(t *testing.T) {
		train, val := d.Split(-0.5, 1)
		if train.Len() != 0 || val.Len() != 10 {
			t.Errorf("frac -0.5: train %d val %d, want 0/10", train.Len(), val.Len())
		}
		train, val = d.Split(1.5, 1)
		if train.Len() != 10 || val.Len() != 0 {
			t.Errorf("frac 1.5: train %d val %d, want 10/0", train.Len(), val.Len())
		}
	})
	t.Run("empty dataset", func(t *testing.T) {
		empty := &Dataset{Classes: 3}
		train, val := empty.Split(0.8, 1)
		if train.Len() != 0 || val.Len() != 0 {
			t.Errorf("empty split: train %d val %d", train.Len(), val.Len())
		}
	})
	t.Run("no sample lost or duplicated", func(t *testing.T) {
		train, val := d.Split(0.7, 5)
		if train.Len()+val.Len() != d.Len() {
			t.Fatalf("split sizes %d+%d != %d", train.Len(), val.Len(), d.Len())
		}
		seen := map[float64]bool{}
		for _, ds := range []*Dataset{train, val} {
			for _, x := range ds.X {
				if seen[x[0]] {
					t.Fatalf("sample %v appears twice", x[0])
				}
				seen[x[0]] = true
			}
		}
	})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := sampleDataset(7, 3)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("round-trip changed the dataset")
	}
}

func TestLoadRejectsBadLabels(t *testing.T) {
	d := sampleDataset(4, 3)
	d.Y[2] = 7 // out of [0, Classes) range
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("Load accepted a label outside the class range")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("Load accepted garbage bytes")
	}
}

// TestGenerateOutcomesRangeComposition checks the shard-granular API: two
// half-ranges of one circuit compose to the same outcomes as the full
// range in one call, and Assemble over them reproduces Generate.
func TestGenerateOutcomesRangeComposition(t *testing.T) {
	cfg := Config{
		Circuits:       []*aig.AIG{circuits.RippleCarryAdder(8)},
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 6,
		Seed:           3,
		Workers:        2,
	}
	ctx := context.Background()
	full, err := GenerateOutcomes(ctx, cfg, 0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := GenerateOutcomes(ctx, cfg, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := GenerateOutcomes(ctx, cfg, 0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	composed := append(append([]MapOutcome{}, lo...), hi...)
	if !reflect.DeepEqual(full, composed) {
		t.Fatal("half-range outcomes differ from the full range")
	}

	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assemble(cfg, [][]MapOutcome{composed})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Assemble over composed ranges differs from Generate")
	}

	t.Run("range validation", func(t *testing.T) {
		if _, err := GenerateOutcomes(ctx, cfg, 2, 0, 6); err == nil {
			t.Error("out-of-range circuit accepted")
		}
		if _, err := GenerateOutcomes(ctx, cfg, 0, 4, 2); err == nil {
			t.Error("inverted map range accepted")
		}
	})
}

// TestAssembleFailureTolerance exercises MaxFailures: skipped outcomes
// under the threshold still assemble; over it, Assemble reports the
// underlying error.
func TestAssembleFailureTolerance(t *testing.T) {
	cfg := Config{
		Circuits:       []*aig.AIG{circuits.RippleCarryAdder(8)},
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 6,
		Seed:           3,
		Workers:        1,
	}
	outcomes, err := GenerateOutcomes(context.Background(), cfg, 0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]MapOutcome{}, outcomes...)
	damaged[2] = MapOutcome{Skipped: true, Err: "injected mapping failure"}

	if _, err := Assemble(cfg, [][]MapOutcome{damaged}); err == nil {
		t.Error("Assemble with MaxFailures 0 accepted a skipped mapping")
	}

	tol := cfg
	tol.MaxFailures = 1
	ds, err := Assemble(tol, [][]MapOutcome{damaged})
	if err != nil {
		t.Fatalf("Assemble within MaxFailures: %v", err)
	}
	if ds.Len() == 0 {
		t.Error("tolerant assembly produced no samples")
	}

	allSkipped := make([]MapOutcome, 6)
	for i := range allSkipped {
		allSkipped[i] = MapOutcome{Skipped: true, Err: "gone"}
	}
	tol.MaxFailures = 6
	if _, err := Assemble(tol, [][]MapOutcome{allSkipped}); err == nil {
		t.Error("Assemble with every mapping skipped produced a dataset")
	}
}
