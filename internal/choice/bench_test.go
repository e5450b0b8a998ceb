package choice

import (
	"context"
	"testing"

	"slap/internal/circuits"
)

// BenchmarkChoiceBuild splits view construction into its three phases on
// ArrayMultiplier(8) — the BenchmarkMultiRoundMap/rounds4choices circuit,
// so phase numbers compose directly with the end-to-end mapping numbers in
// results/. The prove phase is the historical bottleneck: per-class
// cone-scoped solvers scheduled as a level wavefront with fact injection
// replaced one whole-graph solver proving pairs sequentially.
func BenchmarkChoiceBuild(b *testing.B) {
	base := circuits.ArrayMultiplier(8)
	var o Options
	o.fill()

	b.Run("graft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			combine(base)
		}
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		v := combine(base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.propose(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prove", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			v := combine(base) // prove materialises into the view: fresh one per iteration
			prop, err := v.propose(context.Background(), o)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := v.prove(context.Background(), prop, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "full/workers1", 4: "full/workers4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(base, Options{Workers: workers})
			}
		})
	}
}

// BenchmarkChoiceViewCache pins the warm-checkout payoff: a cold checkout
// pays one full Build, a warm repeat is an O(1) content-address lookup.
func BenchmarkChoiceViewCache(b *testing.B) {
	base := circuits.ArrayMultiplier(8)
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := NewCache(0)
			if _, err := c.Checkout(ctx, base, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		c := NewCache(0)
		if _, err := c.Checkout(ctx, base, Options{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Checkout(ctx, base, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
