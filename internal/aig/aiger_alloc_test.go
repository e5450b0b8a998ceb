package aig_test

import (
	"bytes"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
)

// TestReadAAGAllocsC6288 bounds the objects ReadAAG allocates to decode
// c6288 (2,784 AND lines and 64 literal lines): the literal and AND lines
// are parsed in place, so the count follows the graph's own storage and the
// symbol table, not the line count.
func TestReadAAGAllocsC6288(t *testing.T) {
	var buf bytes.Buffer
	if err := circuits.C6288().WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := aig.ReadAAG(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Fatalf("decoding c6288 allocated %.0f objects, want at most 400", allocs)
	}
}
