package dataset

import (
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/embed"
	"slap/internal/library"
)

func genSmall(t testing.TB, maps int) *Dataset {
	t.Helper()
	ds, err := Generate(Config{
		Circuits:       []*aig.AIG{circuits.TrainRC16()},
		Library:        library.ASAP7ish(),
		MapsPerCircuit: maps,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateBasic(t *testing.T) {
	ds := genSmall(t, 20)
	if ds.Len() == 0 {
		t.Fatalf("no samples")
	}
	if ds.Classes != 10 {
		t.Fatalf("classes = %d", ds.Classes)
	}
	for i, x := range ds.X {
		if len(x) != embed.Rows*embed.Cols {
			t.Fatalf("sample %d has %d features", i, len(x))
		}
		if ds.Y[i] < 0 || ds.Y[i] >= 10 {
			t.Fatalf("label %d out of range", ds.Y[i])
		}
	}
	// With min-max labelling both extreme classes must appear.
	h := ds.ClassHistogram()
	if h[0] == 0 {
		t.Fatalf("class 0 empty: %v", h)
	}
	if h[9] == 0 {
		t.Fatalf("class 9 empty: %v", h)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, 8)
	b := genSmall(t, 8)
	if a.Len() != b.Len() {
		t.Fatalf("sample counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("features differ at %d/%d", i, j)
			}
		}
	}
}

func TestSplit(t *testing.T) {
	ds := genSmall(t, 12)
	train, val := ds.Split(0.75, 99)
	if train.Len()+val.Len() != ds.Len() {
		t.Fatalf("split loses samples: %d + %d != %d", train.Len(), val.Len(), ds.Len())
	}
	want := int(0.75 * float64(ds.Len()))
	if train.Len() != want {
		t.Fatalf("train size = %d, want %d", train.Len(), want)
	}
	// Same seed, same split.
	t2, _ := ds.Split(0.75, 99)
	for i := range train.Y {
		if train.Y[i] != t2.Y[i] {
			t.Fatalf("split not deterministic")
		}
	}
}

func TestClassHistogramSums(t *testing.T) {
	ds := genSmall(t, 10)
	h := ds.ClassHistogram()
	sum := 0
	for _, c := range h {
		sum += c
	}
	if sum != ds.Len() {
		t.Fatalf("histogram sums to %d, want %d", sum, ds.Len())
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	lib := library.ASAP7ish()
	if _, err := Generate(Config{Library: lib, MapsPerCircuit: 1}); err == nil {
		t.Errorf("missing circuits must fail")
	}
	if _, err := Generate(Config{Circuits: []*aig.AIG{circuits.TrainRC16()}, MapsPerCircuit: 1}); err == nil {
		t.Errorf("missing library must fail")
	}
	if _, err := Generate(Config{Circuits: []*aig.AIG{circuits.TrainRC16()}, Library: lib}); err == nil {
		t.Errorf("zero maps must fail")
	}
}

func TestTwoCircuitGeneration(t *testing.T) {
	ds, err := Generate(Config{
		Circuits:       []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()},
		Library:        library.ASAP7ish(),
		MapsPerCircuit: 6,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	single := genSmall(t, 6)
	if ds.Len() <= single.Len() {
		t.Fatalf("two circuits should yield more samples: %d vs %d", ds.Len(), single.Len())
	}
}

func TestMetricLabelling(t *testing.T) {
	gen := func(m Metric) *Dataset {
		ds, err := Generate(Config{
			Circuits:       []*aig.AIG{circuits.TrainRC16()},
			Library:        library.ASAP7ish(),
			MapsPerCircuit: 15,
			Seed:           9,
			Metric:         m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	delay := gen(MetricDelay)
	area := gen(MetricArea)
	adp := gen(MetricADP)
	if delay.Len() != area.Len() || delay.Len() != adp.Len() {
		t.Fatalf("metric choice changed sample counts")
	}
	// Labels must differ between metrics for at least one sample
	// (delay-optimal and area-optimal maps differ).
	diff := false
	for i := range delay.Y {
		if delay.Y[i] != area.Y[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("area labels identical to delay labels (suspicious)")
	}
	if MetricDelay.String() != "delay" || MetricArea.String() != "area" || MetricADP.String() != "adp" {
		t.Fatalf("metric names wrong")
	}
}
