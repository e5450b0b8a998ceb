package infer

import (
	"fmt"
	"testing"

	"slap/internal/nn"
)

// BenchmarkBatchForward measures the engine's throughput in ns/sample
// against the per-sample baseline below. The paper's 128-filter model on
// random inputs takes the unshared path at several batch sizes. The served
// cases run the shape slap-serve trains by default: 32 filters,
// column-uniform normalisation on the broadcast rows and embedding-shaped
// inputs, which take the shared path, at batch 37 (the mean batch of a
// traced slap_asic_cold run) and 64, once for probabilities (ForwardBatch)
// and once for the classes the keep decision reads (ForwardClasses).
func BenchmarkBatchForward(b *testing.B) {
	m := randomModel(15, 10, 128, 10, 91)
	for _, bsz := range []int{1, 7, 64, 256, 1000} {
		benchForward(b, fmt.Sprintf("batch=%d", bsz), m, randomBatch(m, bsz, int64(bsz)))
	}
	sm := embeddingModel(32, 92)
	for _, bsz := range []int{37, 64} {
		benchForward(b, fmt.Sprintf("served-32f/batch=%d", bsz), sm, embeddingBatch(sm, bsz, int64(bsz)))
	}
	for _, bsz := range []int{37, 64} {
		benchClasses(b, fmt.Sprintf("served-32f/classes/batch=%d", bsz), sm, embeddingBatch(sm, bsz, int64(bsz)))
	}
}

func benchForward(b *testing.B, name string, m *nn.Model, xs [][]float64) {
	b.Run(name, func(b *testing.B) {
		eng := NewEngine(m, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ForwardBatch(xs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
	})
}

func benchClasses(b *testing.B, name string, m *nn.Model, xs [][]float64) {
	b.Run(name, func(b *testing.B) {
		eng := NewEngine(m, Options{})
		classes := make([]int, len(xs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.ForwardClasses(xs, classes); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/sample")
	})
}

// BenchmarkPerSamplePredict is the single-thread per-sample baseline the
// batched numbers are compared against.
func BenchmarkPerSamplePredict(b *testing.B) {
	m := randomModel(15, 10, 128, 10, 91)
	xs := randomBatch(m, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(xs[i%len(xs)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
}
