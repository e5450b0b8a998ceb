package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"slap/internal/circuits"
	"slap/internal/mapper"
)

func slapNetlistBytes(t *testing.T, r *mapper.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireSameSlapResult(t *testing.T, name string, full, delta *mapper.Result) {
	t.Helper()
	if fb, db := slapNetlistBytes(t, full), slapNetlistBytes(t, delta); !bytes.Equal(fb, db) {
		t.Fatalf("%s: netlist bytes differ:\n--- full ---\n%s\n--- delta ---\n%s", name, fb, db)
	}
	if full.Area != delta.Area || full.Delay != delta.Delay || full.EstimatedDelay != delta.EstimatedDelay {
		t.Fatalf("%s: QoR differs: full (%v, %v, %v), delta (%v, %v, %v)", name,
			full.Area, full.Delay, full.EstimatedDelay, delta.Area, delta.Delay, delta.EstimatedDelay)
	}
	if full.CutsConsidered != delta.CutsConsidered || full.MatchAttempts != delta.MatchAttempts {
		t.Fatalf("%s: counters differ: cuts %d/%d, attempts %d/%d", name,
			full.CutsConsidered, delta.CutsConsidered, full.MatchAttempts, delta.MatchAttempts)
	}
	if delta.PolicyName != "slap" {
		t.Fatalf("%s: policy %q, want slap", name, delta.PolicyName)
	}
}

// TestSlapMapDeltaByteIdentical pins the SLAP-level ECO: delta-remapping an
// edited design against a captured baseline reproduces the full flow's
// result byte-for-byte while re-running inference on the dirty cone only,
// across worker counts and for both capture flows: the fused capture of
// MapStreamCaptureContext, and the two-phase capture MapDeltaContext chains
// (remapping the baseline against its own fused snapshot re-captures it
// from materialised lists).
func TestSlapMapDeltaByteIdentical(t *testing.T) {
	base := circuits.BoothMultiplier(6)
	edited := circuits.Perturb(base, 7, 0.03)
	ctx := context.Background()

	for _, streaming := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := "twophase"
			if streaming {
				name = "stream"
			}
			if workers > 1 {
				name += "/par"
			}
			t.Run(name, func(t *testing.T) {
				s := untrained(3)
				s.Workers = workers

				_, snap, err := s.MapStreamCaptureContext(ctx, base)
				if err != nil {
					t.Fatal(err)
				}
				if !streaming {
					if _, snap, _, err = s.MapDeltaContext(ctx, base, snap); err != nil {
						t.Fatal(err)
					}
				}
				if snap.SnapshotBytes() <= 0 || len(snap.NodeHashes()) != base.NumNodes() {
					t.Fatalf("snapshot malformed: %d bytes, %d hashes",
						snap.SnapshotBytes(), len(snap.NodeHashes()))
				}

				full, err := s.MapStreamContext(ctx, edited)
				if err != nil {
					t.Fatal(err)
				}
				delta, next, st, err := s.MapDeltaContext(ctx, edited, snap)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSlapResult(t, "delta", full, delta)
				if st.DirtyAnds == 0 || st.DirtyAnds >= st.TotalAnds {
					t.Fatalf("dirty cone %d/%d ANDs: edit not detected or nothing reused",
						st.DirtyAnds, st.TotalAnds)
				}
				if st.ReusedCuts == 0 {
					t.Fatal("no cuts reused")
				}

				// The chained snapshot works too: a second edit delta-remaps
				// against the first delta's own capture.
				edited2 := circuits.Perturb(edited, 8, 0.03)
				full2, err := s.MapStreamContext(ctx, edited2)
				if err != nil {
					t.Fatal(err)
				}
				delta2, _, st2, err := s.MapDeltaContext(ctx, edited2, next)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSlapResult(t, "chained", full2, delta2)
				if st2.ReusedCuts == 0 {
					t.Fatal("chained delta reused nothing")
				}
			})
		}
	}
}

// TestSlapMapDeltaIdenticalGraph pins the degenerate ECO: resubmitting the
// baseline graph itself reuses every node.
func TestSlapMapDeltaIdenticalGraph(t *testing.T) {
	g := circuits.TrainRC16()
	s := untrained(5)
	ctx := context.Background()
	full, snap, err := s.MapStreamCaptureContext(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	delta, _, st, err := s.MapDeltaContext(ctx, g, snap)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSlapResult(t, "identical", full, delta)
	if st.DirtyAnds != 0 {
		t.Fatalf("identical graph has %d dirty ANDs, want 0", st.DirtyAnds)
	}
}

// TestSlapMapDeltaMismatch pins the refusal contract: configuration drift
// and nil snapshots are rejected so callers fall back to a cold map.
func TestSlapMapDeltaMismatch(t *testing.T) {
	g := circuits.TrainRC16()
	s := untrained(5)
	ctx := context.Background()
	_, snap, err := s.MapStreamCaptureContext(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.MapDeltaContext(ctx, g, nil); !errors.Is(err, ErrSlapDeltaIneligible) {
		t.Fatalf("nil snapshot: err = %v", err)
	}
	drift := untrained(5)
	drift.GoodMax = s.GoodMax + 1
	drift.Model, drift.Library = s.Model, s.Library
	if _, _, _, err := drift.MapDeltaContext(ctx, g, snap); !errors.Is(err, ErrSlapSnapshotMismatch) {
		t.Fatalf("threshold drift: err = %v", err)
	}
	other := untrained(6) // different model pointer
	other.Library = s.Library
	if _, _, _, err := other.MapDeltaContext(ctx, g, snap); !errors.Is(err, ErrSlapSnapshotMismatch) {
		t.Fatalf("model drift: err = %v", err)
	}
}
