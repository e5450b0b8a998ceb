package experiments

import (
	"strings"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/core"
	"slap/internal/library"
)

// ExtendedDesigns returns the EPFL-style arithmetic blocks the paper
// explicitly skipped (§V-C: "the biggest arithmetic blocks' results are not
// present as the data-frame generation with pandas takes too long") —
// divider, square root, log2 and hypotenuse. This implementation has no
// such bottleneck, so they run as a bonus experiment.
func ExtendedDesigns(p Profile) []Design {
	divBits := 16
	sqrtBits := 32
	logBits := 32
	hypBits := 16
	if p.Name == "paper" {
		divBits, sqrtBits, logBits, hypBits = 32, 64, 32, 32
	}
	if p.Name == "tiny" || p.Name == "bench" {
		divBits, sqrtBits, logBits, hypBits = 8, 16, 16, 8
	}
	return []Design{
		{"div", func() *aig.AIG { return circuits.Divider(divBits) }},
		{"sqrt", func() *aig.AIG { return circuits.Sqrt(sqrtBits) }},
		{"log2", func() *aig.AIG { return circuits.Log2(logBits, 8) }},
		{"hypot", func() *aig.AIG { return circuits.Hypot(hypBits) }},
	}
}

// RunExtended maps the extended designs under the three flows, producing a
// Table-II-shaped result for the blocks the paper could not run.
func RunExtended(p Profile, s *core.SLAP, lib *library.Library, progress func(string)) (*Table2, error) {
	return runTable("extended", p.Name+"-extended", ExtendedDesigns(p), s, lib, progress)
}

// RenderExtended labels the extended table.
func RenderExtended(t *Table2) string {
	var b strings.Builder
	b.WriteString("Extended designs (EPFL blocks the paper skipped)\n")
	b.WriteString(t.Render())
	return b.String()
}
