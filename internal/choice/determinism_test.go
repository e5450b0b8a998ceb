package choice

import (
	"bytes"
	"testing"

	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/mapper"
)

// TestChoiceWorkersDeterminismMatrix is the parallel-build determinism
// contract: for every Workers count the built view must be identical —
// same classes, same member lists, same proof outcome tallies — and a
// mapping over it must render byte-identical Verilog. Proving runs on
// per-class cone solvers scheduled as a level wavefront with
// barrier-frozen fact snapshots, so no verdict can depend on which worker
// ran which class or in what order.
func TestChoiceWorkersDeterminismMatrix(t *testing.T) {
	g := circuits.BoothMultiplier(8) // past the exhaustive bound: the SAT prover runs
	workerCounts := []int{1, 2, 4, 7}

	type built struct {
		v       *View
		verilog []byte
	}
	render := func(v *View) []byte {
		res, err := mapper.MapStream(v.G, mapper.Options{
			Library: library.ASAP7ish(), Policy: cuts.DefaultPolicy{},
			Rounds: 2, Choices: v,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Netlist.WriteVerilog(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var ref built
	for i, workers := range workerCounts {
		v := Build(g, Options{Workers: workers})
		if v.Exhaustive() {
			t.Fatal("booth-8 unexpectedly simulated exhaustively; the matrix exercised no proving")
		}
		cur := built{v: v, verilog: render(v)}
		if i == 0 {
			ref = cur
			if v.Classes() == 0 || v.ProvedMembers() == 0 {
				t.Fatalf("reference build found no work: classes=%d proved=%d", v.Classes(), v.ProvedMembers())
			}
			continue
		}
		if v.Classes() != ref.v.Classes() || v.MemberRefs() != ref.v.MemberRefs() {
			t.Fatalf("workers=%d: classes/refs %d/%d, want %d/%d",
				workers, v.Classes(), v.MemberRefs(), ref.v.Classes(), ref.v.MemberRefs())
		}
		if v.ProvedMembers() != ref.v.ProvedMembers() ||
			v.DroppedDiffer() != ref.v.DroppedDiffer() ||
			v.DroppedBudget() != ref.v.DroppedBudget() {
			t.Fatalf("workers=%d: outcomes proved=%d differ=%d budget=%d, want %d/%d/%d",
				workers, v.ProvedMembers(), v.DroppedDiffer(), v.DroppedBudget(),
				ref.v.ProvedMembers(), ref.v.DroppedDiffer(), ref.v.DroppedBudget())
		}
		if v.G.NumNodes() != ref.v.G.NumNodes() {
			t.Fatalf("workers=%d: combined graph has %d nodes, want %d", workers, v.G.NumNodes(), ref.v.G.NumNodes())
		}
		for n := uint32(1); n < uint32(v.G.NumNodes()); n++ {
			ma, mb := ref.v.MembersOf(n), v.MembersOf(n)
			if len(ma) != len(mb) {
				t.Fatalf("workers=%d: node %d member count %d, want %d", workers, n, len(mb), len(ma))
			}
			for j := range ma {
				if ma[j] != mb[j] {
					t.Fatalf("workers=%d: node %d member %d = %+v, want %+v", workers, n, j, mb[j], ma[j])
				}
			}
		}
		if !bytes.Equal(cur.verilog, ref.verilog) {
			t.Fatalf("workers=%d: mapped Verilog differs from workers=%d", workers, workerCounts[0])
		}
	}
}
