//go:build !amd64

package infer

// hasAVX is false off amd64; the Go lane loops always run.
const hasAVX = false

// convBlockAVX is never called when hasAVX is false.
func convBlockAVX(xn, xs, w, bias, act *float64, filters, rows, nvar, nshared int) {
	panic("infer: convBlockAVX without AVX support")
}

// denseBlockAVX is never called when hasAVX is false.
func denseBlockAVX(act, wT, bias, logits *float64, flat int) {
	panic("infer: denseBlockAVX without AVX support")
}
