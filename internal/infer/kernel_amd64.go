//go:build amd64

package infer

// hasAVX gates the vector kernels. Detected once at startup via
// CPUID/XGETBV (AVX instructions present and the OS saves YMM state).
var hasAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU and OS support AVX. Implemented in
// kernel_amd64.s.
func cpuHasAVX() bool

// convBlockAVX is convBlock for Cols == 10: the conv layer plus ReLU over
// one block, with the ten column accumulators of a filter in ten YMM
// registers. Implemented in kernel_amd64.s.
//
//go:noescape
func convBlockAVX(xn, xs, w, bias, act *float64, filters, rows, nvar, nshared int)

// denseBlockAVX is denseBlock for Classes == 10, flat >= 1: the dense
// layer over one block, with the ten class accumulators in ten YMM
// registers. Implemented in kernel_amd64.s.
//
//go:noescape
func denseBlockAVX(act, wT, bias, logits *float64, flat int)
