//go:build amd64

package infer

import "testing"

// withKernels runs f on the AVX kernels, when the host has them, and then
// on the Go lane loops. hasAVX is a package var only on amd64, hence the
// build tag.
func withKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if hasAVX {
		t.Run("avx", f)
		hasAVX = false
		defer func() { hasAVX = true }()
	}
	t.Run("go", f)
}

// TestDenseScalarFallback pins the dense layer to the per-sample forward
// pass bit for bit at 10 classes (the AVX kernel's shape) and at 6 (which
// always runs the Go lane loops), and then forces the Go loops for both.
func TestDenseScalarFallback(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: dense kernel not in play")
	}
	check := func(label string) {
		for _, classes := range []int{10, 6} {
			m := randomModel(15, 10, 64, classes, 47)
			xs := randomBatch(m, 9, int64(300+classes))
			got, err := NewEngine(m, Options{}).ForwardBatch(xs)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				want := m.Predict(x)
				for c := range want {
					if got[i][c] != want[c] {
						t.Fatalf("%s: classes=%d sample %d class %d: dense path diverged", label, classes, i, c)
					}
				}
			}
		}
	}
	check("avx")
	hasAVX = false
	defer func() { hasAVX = true }()
	check("forced go")
}

// TestEngineScalarFallback forces the Go lane loops on AVX hosts so the
// non-amd64 code keeps its bit-identity guarantee under test.
func TestEngineScalarFallback(t *testing.T) {
	if !hasAVX {
		t.Skip("already running the scalar path")
	}
	hasAVX = false
	defer func() { hasAVX = true }()

	m := randomModel(15, 10, 128, 10, 43)
	eng := NewEngine(m, Options{})
	for _, bsz := range []int{1, 7, 64} {
		xs := randomBatch(m, bsz, int64(200+bsz))
		got, err := eng.ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := m.Predict(x)
			for c := range want {
				if got[i][c] != want[c] {
					t.Fatalf("batch %d sample %d class %d: scalar path diverged", bsz, i, c)
				}
			}
		}
	}
}
