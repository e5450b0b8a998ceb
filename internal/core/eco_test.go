package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/circuits"
	"slap/internal/cover"
	"slap/internal/library"
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
	if full.CutsConsidered != delta.CutsConsidered || full.MatchAttempts != delta.MatchAttempts || full.PeakCuts != delta.PeakCuts {
		t.Fatalf("%s: counters differ: cuts %d/%d, attempts %d/%d, peak %d/%d", name,
			full.CutsConsidered, delta.CutsConsidered, full.MatchAttempts, delta.MatchAttempts, full.PeakCuts, delta.PeakCuts)
	}
	if delta.PolicyName != "slap" {
		t.Fatalf("%s: policy %q, want slap", name, delta.PolicyName)
	}
}

// slapOptions maps with s's keep decision, as the server's flow does.
func slapOptions(ctx context.Context, s *SLAP) mapper.Options {
	return mapper.Options{Library: s.Library, Policy: s.Policy(ctx), Workers: s.Workers}
}

// slapCapture maps g under s and captures its ECO snapshot.
func slapCapture(t *testing.T, ctx context.Context, s *SLAP, g *aig.AIG) (*mapper.Result, *cover.Snapshot) {
	t.Helper()
	opt := slapOptions(ctx, s)
	snap := cover.NewSnapshot(g, opt.Policy)
	opt.CaptureCuts = snap.Capture
	res, err := mapper.MapStream(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, snap
}

// slapDelta delta-remaps g under s against snap, capturing the snapshot
// the next edit chains to.
func slapDelta(ctx context.Context, s *SLAP, g *aig.AIG, snap *cover.Snapshot) (*mapper.Result, *cover.Snapshot, *cover.DeltaStats, error) {
	opt := slapOptions(ctx, s)
	next := cover.NewSnapshot(g, opt.Policy)
	opt.CaptureCuts = next.Capture
	res, st, err := mapper.MapDelta(g, opt, snap)
	return res, next, st, err
}

// TestSlapMapDeltaByteIdentical pins the SLAP-level ECO: delta-remapping an
// edited design against a captured baseline reproduces the full flow's
// result byte-for-byte, enumeration peak included, while re-running
// inference on the dirty cone only, across worker counts and for both
// ways a snapshot is captured: by a cold map, and chained by a delta remap
// (remapping the baseline against its own snapshot re-captures it).
func TestSlapMapDeltaByteIdentical(t *testing.T) {
	base := circuits.BoothMultiplier(6)
	edited := circuits.Perturb(base, 7, 0.03)
	ctx := context.Background()

	for _, cold := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := "chained"
			if cold {
				name = "stream"
			}
			if workers > 1 {
				name += "/par"
			}
			t.Run(name, func(t *testing.T) {
				s := untrained(3)
				s.Workers = workers

				_, snap := slapCapture(t, ctx, s, base)
				if !cold {
					var err error
					if _, snap, _, err = slapDelta(ctx, s, base, snap); err != nil {
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
				delta, next, st, err := slapDelta(ctx, s, edited, snap)
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
				delta2, _, st2, err := slapDelta(ctx, s, edited2, next)
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
	full, snap := slapCapture(t, ctx, s, g)
	delta, _, st, err := slapDelta(ctx, s, g, snap)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSlapResult(t, "identical", full, delta)
	if st.DirtyAnds != 0 {
		t.Fatalf("identical graph has %d dirty ANDs, want 0", st.DirtyAnds)
	}
}

// TestSlapMapDeltaMismatch pins the refusal contract: configuration drift,
// nil snapshots, a multi-round schedule and a changed depth are rejected
// so callers fall back to a cold map.
func TestSlapMapDeltaMismatch(t *testing.T) {
	g := circuits.TrainRC16()
	s := untrained(5)
	ctx := context.Background()
	_, snap := slapCapture(t, ctx, s, g)
	if _, _, _, err := slapDelta(ctx, s, g, nil); !errors.Is(err, cover.ErrDeltaIneligible) {
		t.Fatalf("nil snapshot: err = %v", err)
	}
	drift := untrained(5)
	drift.GoodMax = s.GoodMax + 1
	drift.Model, drift.Library = s.Model, s.Library
	if _, _, _, err := slapDelta(ctx, drift, g, snap); !errors.Is(err, cover.ErrSnapshotMismatch) {
		t.Fatalf("threshold drift: err = %v", err)
	}
	other := untrained(6) // different model pointer
	other.Library = s.Library
	if _, _, _, err := slapDelta(ctx, other, g, snap); !errors.Is(err, cover.ErrSnapshotMismatch) {
		t.Fatalf("model drift: err = %v", err)
	}
	opt := slapOptions(ctx, s)
	opt.Rounds = 2
	if _, _, err := mapper.MapDelta(g, opt, snap); !errors.Is(err, cover.ErrDeltaIneligible) {
		t.Fatalf("multi-round delta: err = %v", err)
	}
	// A new PO one level above the deepest node changes the depth.
	deeper := circuits.TrainRC16()
	for _, po := range deeper.POs() {
		if deeper.Level(po.Lit.Node()) == deeper.MaxLevel() {
			deeper.AddPO("deep", deeper.And(po.Lit, aig.MakeLit(deeper.PIs()[0], false)))
			break
		}
	}
	if deeper.MaxLevel() != g.MaxLevel()+1 {
		t.Fatalf("edited depth %d, want %d", deeper.MaxLevel(), g.MaxLevel()+1)
	}
	if _, _, _, err := slapDelta(ctx, s, deeper, snap); !errors.Is(err, cover.ErrDeltaIneligible) {
		t.Fatalf("depth change: err = %v", err)
	}
}

// TestConfigSigPinned pins the result-cache signature strings byte for
// byte, under slap and under the other policies: the result cache charges
// each entry len(Sig), so a changed byte moves the cache's byte accounting
// and with it the exposed slap_mapcache_bytes.
func TestConfigSigPinned(t *testing.T) {
	lib := library.ASAP7ish()
	keep := &SLAP{Library: lib, GoodMax: DefaultGoodMax, AvgMax: DefaultAvgMax}
	for _, tc := range []struct {
		req  Request
		opts choice.Options
		want string
	}{
		{Request{Policy: "slap"}, choice.Options{}, "slap/model=0x0/lib=asap7ish@%p/good=3/avg=6/mc=2000/rounds=1/df=1/choices=off"},
		{Request{Policy: "slap", Rounds: 4, DelayFactor: 1.25, Choices: true}, choice.Options{ProofConflicts: 99},
			"slap/model=0x0/lib=asap7ish@%p/good=3/avg=6/mc=2000/rounds=4/df=1.25/choices=variants=2/seed=1/mm=8/sw=16/pc=99"},
		{Request{}, choice.Options{}, "asic/policy=default/limit=0/seed=0/lib=asap7ish@%p/rounds=1/df=1/choices=off"},
		{Request{Policy: "default", Limit: 8, Seed: 5}, choice.Options{}, "asic/policy=default/limit=8/seed=0/lib=asap7ish@%p/rounds=1/df=1/choices=off"},
		{Request{Policy: "unlimited", Limit: 8, Seed: 5}, choice.Options{}, "asic/policy=unlimited/limit=0/seed=0/lib=asap7ish@%p/rounds=1/df=1/choices=off"},
		{Request{Policy: "shuffle", Limit: 8, Seed: 5, Rounds: 4, DelayFactor: 1.5, Choices: true}, choice.Options{},
			"asic/policy=shuffle/limit=8/seed=5/lib=asap7ish@%p/rounds=4/df=1.5/choices=variants=2/seed=1/mm=8/sw=16/pc=4000"},
	} {
		m := &Mapping{Request: tc.req, Library: lib, SLAP: keep, ChoiceOpts: tc.opts}
		if err := m.Resolve(); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Sig(), fmt.Sprintf(tc.want, lib); got != want {
			t.Errorf("%+v: Sig = %q, want %q", tc.req, got, want)
		}
	}
}
