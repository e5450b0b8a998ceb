package cover_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
)

// stubFilter is a level filter with a cone-local keep decision: the cuts
// of at most three leaves plus the trivial cut, with the rest as the
// recovery pool.
type stubFilter struct{ cuts.UnlimitedPolicy }

func (stubFilter) Name() string { return "stub" }
func (stubFilter) Sig() string  { return "stub" }

func (stubFilter) Begin(*aig.AIG) (func(nodes []uint32, sets, kept, extras [][]cuts.Cut) error, func()) {
	filter := func(nodes []uint32, sets, kept, extras [][]cuts.Cut) error {
		for _, n := range nodes {
			k, rest := keep(n, sets[n])
			kept[n] = k
			if extras != nil {
				extras[n] = rest
			}
		}
		return nil
	}
	return filter, func() {}
}

// keep splits cs into the stub's kept list and recovery pool.
func keep(n uint32, cs []cuts.Cut) (kept, rest []cuts.Cut) {
	for _, c := range cs {
		if len(c.Leaves) <= 3 || c.IsTrivial(n) {
			kept = append(kept, c)
		} else {
			rest = append(rest, c)
		}
	}
	return kept, rest
}

// stream is what mapper.Stream and lutmap.Stream share.
type stream interface {
	ConsumeNode(n uint32, cs []cuts.Cut)
	ConsumeExtras(n uint32, cs []cuts.Cut)
	SetPeakCuts(peak int)
}

// feedFiltered materialises g's unlimited cut lists, filters them with
// the stub and feeds the kept lists (and, over several rounds, the
// recovery pools) to st in ascending node order, with the streaming
// enumeration's peak.
func feedFiltered(g *aig.AIG, st stream, rounds int) error {
	sets := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}}).Run().Sets
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		kept, rest := keep(n, sets[n])
		st.ConsumeNode(n, kept)
		if rounds > 1 {
			st.ConsumeExtras(n, rest)
		}
	}
	res, err := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}}).RunStream(func(int32, []uint32, [][]cuts.Cut) error { return nil })
	if err != nil {
		return err
	}
	st.SetPeakCuts(res.PeakCuts)
	return nil
}

func blif(t *testing.T, r *mapper.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameASIC pins two asic results to the same netlist bytes, QoR,
// counters and round records.
func requireSameASIC(t *testing.T, name string, want, got *mapper.Result) {
	t.Helper()
	if !bytes.Equal(blif(t, want), blif(t, got)) {
		t.Fatalf("%s: netlist bytes differ", name)
	}
	if want.Area != got.Area || want.Delay != got.Delay || want.EstimatedDelay != got.EstimatedDelay {
		t.Fatalf("%s: QoR (%v, %v, %v), want (%v, %v, %v)", name,
			got.Area, got.Delay, got.EstimatedDelay, want.Area, want.Delay, want.EstimatedDelay)
	}
	if want.CutsConsidered != got.CutsConsidered || want.MatchAttempts != got.MatchAttempts || want.PeakCuts != got.PeakCuts {
		t.Fatalf("%s: counters (%d, %d, %d), want (%d, %d, %d)", name,
			got.CutsConsidered, got.MatchAttempts, got.PeakCuts, want.CutsConsidered, want.MatchAttempts, want.PeakCuts)
	}
	if !reflect.DeepEqual(want.RoundStats, got.RoundStats) {
		t.Fatalf("%s: rounds %+v, want %+v", name, got.RoundStats, want.RoundStats)
	}
}

// TestLevelFilterMatchesMaterialisedLists runs a level filter through both
// targets' MapStream and requires the result of feeding the same filtered
// lists to a Stream in ascending node order, for every worker count, with
// and without an arena pool, in the classic schedule and over three
// rounds (where the engine asks the filter for recovery pools).
func TestLevelFilterMatchesMaterialisedLists(t *testing.T) {
	lib := library.ASAP7ish()
	g := circuits.BoothMultiplier(6)
	for _, rounds := range []int{1, 3} {
		ast, err := mapper.NewStream(g, mapper.Options{Library: lib, Policy: stubFilter{}, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if err := feedFiltered(g, ast, rounds); err != nil {
			t.Fatal(err)
		}
		wantASIC, err := ast.Finish()
		if err != nil {
			t.Fatal(err)
		}
		lst := lutmap.NewStream(g, lutmap.Options{Policy: stubFilter{}, Rounds: rounds})
		if err := feedFiltered(g, lst, rounds); err != nil {
			t.Fatal(err)
		}
		wantLUT, err := lst.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if rounds > 1 && len(wantASIC.RoundStats) != rounds {
			t.Fatalf("reference ran %d rounds, want %d", len(wantASIC.RoundStats), rounds)
		}

		pool := cuts.NewPool(1)
		for _, workers := range []int{1, 4} {
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("rounds=%d/workers=%d/pool=%v", rounds, workers, pooled)
				var p *cuts.Pool
				if pooled {
					p = pool
				}
				got, err := mapper.MapStream(g, mapper.Options{Library: lib, Policy: stubFilter{}, Workers: workers, Pool: p, Rounds: rounds})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requireSameASIC(t, name+"/asic", wantASIC, got)

				lut, err := lutmap.MapStream(g, lutmap.Options{Policy: stubFilter{}, Workers: workers, Pool: p, Rounds: rounds})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(wantLUT.LUTs, lut.LUTs) || wantLUT.Depth != lut.Depth ||
					wantLUT.CutsConsidered != lut.CutsConsidered || wantLUT.PeakCuts != lut.PeakCuts ||
					!reflect.DeepEqual(wantLUT.RoundStats, lut.RoundStats) {
					t.Fatalf("%s/lut: (%d LUTs, depth %d, %d cuts, peak %d), want (%d, %d, %d, %d)", name,
						lut.NumLUTs(), lut.Depth, lut.CutsConsidered, lut.PeakCuts,
						wantLUT.NumLUTs(), wantLUT.Depth, wantLUT.CutsConsidered, wantLUT.PeakCuts)
				}
			}
		}
	}
}

// TestDeltaFilterFeatures taps an internal node with a new PO. That keeps
// every cone hash and changes one node's fanout, which a cone-local
// policy never reads and a level filter may: a cone-local snapshot finds
// no dirty AND, a filter snapshot some. Both deltas must reproduce a cold
// map of the edited design.
func TestDeltaFilterFeatures(t *testing.T) {
	lib := library.ASAP7ish()
	base := circuits.BoothMultiplier(6)
	edited := circuits.BoothMultiplier(6)
	var tap uint32
	for n := uint32(1); n < uint32(edited.NumNodes()); n++ {
		if edited.IsAnd(n) && edited.Level(n) == edited.MaxLevel()/2 {
			tap = n
			break
		}
	}
	edited.AddPO("tap", aig.MakeLit(tap, false))
	if edited.Fanout(tap) != base.Fanout(tap)+1 || edited.MaxLevel() != base.MaxLevel() {
		t.Fatal("the tap did not add one fanout at equal depth")
	}

	for _, tc := range []struct {
		name   string
		policy cuts.Policy
		dirty  bool
	}{
		{"default", cuts.DefaultPolicy{}, false},
		{"filter", stubFilter{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := mapper.Options{Library: lib, Policy: tc.policy}
			snap := cover.NewSnapshot(base, tc.policy)
			capOpt := opt
			capOpt.CaptureCuts = snap.Capture
			if _, err := mapper.MapStream(base, capOpt); err != nil {
				t.Fatal(err)
			}
			cold, err := mapper.MapStream(edited, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				dopt := opt
				dopt.Workers = workers
				delta, st, err := mapper.MapDelta(edited, dopt, snap)
				if err != nil {
					t.Fatal(err)
				}
				requireSameASIC(t, fmt.Sprintf("workers=%d", workers), cold, delta)
				if (st.DirtyAnds > 0) != tc.dirty || st.DirtyAnds >= st.TotalAnds {
					t.Fatalf("workers=%d: %d of %d ANDs dirty, want dirty %v", workers, st.DirtyAnds, st.TotalAnds, tc.dirty)
				}
			}
		})
	}
}
