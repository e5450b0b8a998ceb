package mapper

import (
	"bytes"
	"math/rand"
	"testing"

	"slap/internal/circuits"
	"slap/internal/cover"
	"slap/internal/cuts"
	"slap/internal/library"
)

// netlistBytes renders a result's netlist to BLIF for byte comparison.
func netlistBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameResult pins byte identity between a delta remap and a full
// map: netlist bytes, QoR, counters and the cover.
func requireSameResult(t *testing.T, full, delta *Result) {
	t.Helper()
	if fb, db := netlistBytes(t, full), netlistBytes(t, delta); !bytes.Equal(fb, db) {
		t.Fatalf("netlist bytes differ:\n--- full ---\n%s\n--- delta ---\n%s", fb, db)
	}
	if full.Area != delta.Area || full.Delay != delta.Delay || full.EstimatedDelay != delta.EstimatedDelay {
		t.Fatalf("QoR differs: full area=%v delay=%v est=%v, delta area=%v delay=%v est=%v",
			full.Area, full.Delay, full.EstimatedDelay, delta.Area, delta.Delay, delta.EstimatedDelay)
	}
	if full.CutsConsidered != delta.CutsConsidered || full.MatchAttempts != delta.MatchAttempts {
		t.Fatalf("counters differ: cuts %d/%d, attempts %d/%d",
			full.CutsConsidered, delta.CutsConsidered, full.MatchAttempts, delta.MatchAttempts)
	}
	if full.PolicyName != delta.PolicyName {
		t.Fatalf("policy name differs: %q vs %q", full.PolicyName, delta.PolicyName)
	}
	if len(full.Cover) != len(delta.Cover) {
		t.Fatalf("cover size differs: %d vs %d", len(full.Cover), len(delta.Cover))
	}
	for i := range full.Cover {
		fc, dc := full.Cover[i], delta.Cover[i]
		if fc.Node != dc.Node || fc.Cut.TT != dc.Cut.TT || len(fc.Cut.Leaves) != len(dc.Cut.Leaves) {
			t.Fatalf("cover entry %d differs: %+v vs %+v", i, fc, dc)
		}
		for j := range fc.Cut.Leaves {
			if fc.Cut.Leaves[j] != dc.Cut.Leaves[j] {
				t.Fatalf("cover entry %d leaf %d differs", i, j)
			}
		}
	}
}

// TestMapDeltaByteIdentical is the tentpole pin: across policies, baseline
// capture flows (fused, or two-phase from materialised lists) and worker
// counts, delta-remapping a 5%-edited design yields exactly the result of a
// cold full map, while actually skipping work. MapDelta runs the parallel
// wavefront with the reuse hook, so every subtest remaps at workers
// {1, 2, 4, 7}; run under -race this pins the hook as a read-only lookup.
func TestMapDeltaByteIdentical(t *testing.T) {
	lib := library.ASAP7ish()
	base := circuits.ArrayMultiplier(8)
	edited := circuits.Perturb(base, 42, 0.05)

	policies := []struct {
		name string
		p    cuts.Policy
	}{
		{"abc-default", cuts.DefaultPolicy{}},
		{"unlimited", cuts.UnlimitedPolicy{}},
		{"exhaustive-nil", nil},
	}
	for _, pol := range policies {
		for _, workers := range []int{1, 4} {
			for _, streaming := range []bool{false, true} {
				name := pol.name
				if streaming {
					name += "/stream"
				} else {
					name += "/twophase"
				}
				if workers > 1 {
					name += "/par"
				}
				t.Run(name, func(t *testing.T) {
					opt := Options{Library: lib, Policy: pol.p, Workers: workers}
					snap := cover.NewSnapshot(base, opt.Policy)
					if snap == nil {
						t.Fatal("options unexpectedly ECO-ineligible")
					}
					capOpt := opt
					capOpt.CaptureCuts = snap.Capture

					var baseRes *Result
					var err error
					if streaming {
						baseRes, err = MapStream(base, capOpt)
					} else {
						baseRes = mapTwoPhase(t, base, capOpt)
					}
					if err != nil {
						t.Fatal(err)
					}
					if baseRes.Netlist == nil {
						t.Fatal("baseline produced no netlist")
					}
					if snap.SnapshotBytes() <= 0 {
						t.Fatal("snapshot captured nothing")
					}

					full, err := MapStream(edited, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, dw := range []int{1, 2, 4, 7} {
						dopt := opt
						dopt.Workers = dw
						delta, st, err := MapDelta(edited, dopt, snap)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, full, delta)
						if delta.PeakCuts != full.PeakCuts {
							t.Fatalf("workers=%d: peak differs: %d vs %d", dw, delta.PeakCuts, full.PeakCuts)
						}
						if st.DirtyAnds == 0 || st.DirtyAnds >= st.TotalAnds {
							t.Fatalf("dirty cone %d/%d ANDs: edit not detected or nothing reused",
								st.DirtyAnds, st.TotalAnds)
						}
						if st.DirtyFraction > 0.9 {
							t.Fatalf("dirty fraction %.2f too high for a 5%% edit", st.DirtyFraction)
						}
						if st.ReusedCuts == 0 {
							t.Fatal("no cuts reused")
						}
					}
				})
			}
		}
	}
}

// TestMapDeltaIdenticalGraph pins the degenerate ECO: resubmitting the
// unmodified baseline reuses every node and still reproduces the result.
func TestMapDeltaIdenticalGraph(t *testing.T) {
	lib := library.ASAP7ish()
	g := circuits.CarryLookaheadAdder(16)
	opt := Options{Library: lib, Policy: cuts.DefaultPolicy{}}
	snap := cover.NewSnapshot(g, opt.Policy)
	capOpt := opt
	capOpt.CaptureCuts = snap.Capture
	full, err := MapStream(g, capOpt)
	if err != nil {
		t.Fatal(err)
	}
	delta, st, err := MapDelta(g, opt, snap)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, full, delta)
	if st.DirtyAnds != 0 {
		t.Fatalf("identical graph has %d dirty ANDs, want 0", st.DirtyAnds)
	}
}

// TestMapDeltaIneligiblePolicies pins the fallback contract for stateful
// and non-cone-local policies.
func TestMapDeltaIneligiblePolicies(t *testing.T) {
	lib := library.ASAP7ish()
	g := circuits.CarryLookaheadAdder(8)
	for _, p := range []cuts.Policy{
		&cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(1))},
		cuts.SingleAttributePolicy{},
	} {
		opt := Options{Library: lib, Policy: p}
		if snap := cover.NewSnapshot(g, opt.Policy); snap != nil {
			t.Fatalf("%T unexpectedly eligible for snapshots", p)
		}
		good := cover.NewSnapshot(g, cuts.DefaultPolicy{})
		if _, _, err := MapDelta(g, opt, good); err == nil {
			t.Fatalf("%T delta-remap did not error", p)
		}
	}
	// Mismatched enumeration signatures must be refused too.
	snapA := cover.NewSnapshot(g, cuts.DefaultPolicy{Limit: 10})
	if _, _, err := MapDelta(g, Options{Library: lib, Policy: cuts.DefaultPolicy{Limit: 20}}, snapA); err == nil {
		t.Fatal("mismatched cut limits did not error")
	}
}
