//go:build !amd64

package infer

import "testing"

// withKernels runs f on the Go lane loops, the only kernels off amd64.
func withKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("go", f)
}
