package aig

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	l := MakeLit(7, true)
	if l.Node() != 7 || !l.IsCompl() {
		t.Fatalf("MakeLit/Node/IsCompl broken: %v", l)
	}
	if l.Not().IsCompl() {
		t.Errorf("Not must clear the complement bit")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Errorf("NotIf broken")
	}
}

func TestAndSimplifications(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	if g.And(ConstFalse, a) != ConstFalse {
		t.Errorf("0 AND a must be 0")
	}
	if g.And(ConstTrue, a) != a {
		t.Errorf("1 AND a must be a")
	}
	if g.And(a, a) != a {
		t.Errorf("a AND a must be a")
	}
	if g.And(a, a.Not()) != ConstFalse {
		t.Errorf("a AND !a must be 0")
	}
	x := g.And(a, b)
	y := g.And(b, a)
	if x != y {
		t.Errorf("structural hashing must merge commuted ANDs")
	}
	if g.NumAnds() != 1 {
		t.Errorf("expected exactly one AND node, got %d", g.NumAnds())
	}
}

func TestSimulateBasicGates(t *testing.T) {
	g := New("gates")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO("and", g.And(a, b))
	g.AddPO("or", g.Or(a, b))
	g.AddPO("xor", g.Xor(a, b))
	g.AddPO("nand", g.Nand(a, b))
	g.AddPO("xnor", g.Xnor(a, b))
	g.AddPO("nor", g.Nor(a, b))

	av := uint64(0b0101)
	bv := uint64(0b0011)
	out := g.Simulate([]uint64{av, bv})
	mask := uint64(0b1111)
	wants := []uint64{
		av & bv, av | bv, av ^ bv, ^(av & bv) & mask, ^(av ^ bv) & mask, ^(av | bv) & mask,
	}
	for i, want := range wants {
		if out[i]&mask != want {
			t.Errorf("PO %s: got %04b want %04b", g.POs()[i].Name, out[i]&mask, want)
		}
	}
}

func TestMuxAndMaj(t *testing.T) {
	g := New("muxmaj")
	s := g.AddPI("s")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO("mux", g.Mux(s, a, b))
	g.AddPO("maj", g.Maj(s, a, b))
	for m := 0; m < 8; m++ {
		sv := uint64(m & 1)
		av := uint64(m >> 1 & 1)
		bv := uint64(m >> 2 & 1)
		out := g.Simulate([]uint64{sv, av, bv})
		wantMux := bv
		if sv == 1 {
			wantMux = av
		}
		cnt := sv + av + bv
		wantMaj := uint64(0)
		if cnt >= 2 {
			wantMaj = 1
		}
		if out[0]&1 != wantMux {
			t.Errorf("mux(%d,%d,%d) = %d want %d", sv, av, bv, out[0]&1, wantMux)
		}
		if out[1]&1 != wantMaj {
			t.Errorf("maj(%d,%d,%d) = %d want %d", sv, av, bv, out[1]&1, wantMaj)
		}
	}
}

func TestLevelsAndReverseLevels(t *testing.T) {
	g := New("lv")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	ab := g.And(a, b)
	abc := g.And(ab, c)
	g.AddPO("f", abc)
	if g.Level(a.Node()) != 0 {
		t.Errorf("PI level must be 0")
	}
	if g.Level(ab.Node()) != 1 || g.Level(abc.Node()) != 2 {
		t.Errorf("levels wrong: %d %d", g.Level(ab.Node()), g.Level(abc.Node()))
	}
	if g.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d want 2", g.MaxLevel())
	}
	if g.ReverseLevel(abc.Node()) != 0 {
		t.Errorf("PO driver reverse level must be 0")
	}
	if g.ReverseLevel(ab.Node()) != 1 || g.ReverseLevel(a.Node()) != 2 {
		t.Errorf("reverse levels wrong: %d %d", g.ReverseLevel(ab.Node()), g.ReverseLevel(a.Node()))
	}
}

func TestFanoutAndInvertedFanout(t *testing.T) {
	g := New("fo")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	y := g.And(x.Not(), a)
	g.AddPO("x", x)
	g.AddPO("y", y)
	if g.Fanout(a.Node()) != 2 {
		t.Errorf("fanout(a) = %d want 2", g.Fanout(a.Node()))
	}
	if g.Fanout(x.Node()) != 2 { // one AND fanin + one PO
		t.Errorf("fanout(x) = %d want 2", g.Fanout(x.Node()))
	}
	if !g.HasInvertedFanout(x.Node()) {
		t.Errorf("x is referenced complemented by y")
	}
	if g.HasInvertedFanout(y.Node()) {
		t.Errorf("y has no complemented fanout")
	}
}

func TestAndNOrN(t *testing.T) {
	g := New("nary")
	var ins []Lit
	for i := 0; i < 5; i++ {
		ins = append(ins, g.AddPI(""))
	}
	g.AddPO("and", g.AndN(ins))
	g.AddPO("or", g.OrN(ins))
	if g.AndN(nil) != ConstTrue || g.OrN(nil) != ConstFalse {
		t.Errorf("empty fold identities wrong")
	}
	vals := []uint64{0b1111, 0b1110, 0b1111, 0b1011, 0b1111}
	out := g.Simulate(vals)
	if out[0]&0b1111 != 0b1010 {
		t.Errorf("AndN wrong: %04b", out[0]&0b1111)
	}
	if out[1]&0b1111 != 0b1111 {
		t.Errorf("OrN wrong: %04b", out[1]&0b1111)
	}
}

// buildRandom creates a pseudo-random AIG for round-trip and property tests.
func buildRandom(rng *rand.Rand, nPIs, nAnds int) *AIG {
	g := New("rand")
	lits := make([]Lit, 0, nPIs+nAnds)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 4; i++ {
		g.AddPO("", lits[len(lits)-1-i].NotIf(rng.Intn(2) == 1))
	}
	return g
}

func TestAAGRoundTripFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		g := buildRandom(rng, 6, 40)
		var buf bytes.Buffer
		if err := g.WriteAAG(&buf); err != nil {
			t.Fatalf("WriteAAG: %v", err)
		}
		h, err := ReadAAG(&buf)
		if err != nil {
			t.Fatalf("ReadAAG: %v", err)
		}
		if h.NumPIs() != g.NumPIs() || h.NumPOs() != g.NumPOs() {
			t.Fatalf("interface mismatch after round trip")
		}
		// Functional equivalence on random patterns.
		ins := make([]uint64, g.NumPIs())
		for i := range ins {
			ins[i] = rng.Uint64()
		}
		og := g.Simulate(ins)
		oh := h.Simulate(ins)
		for i := range og {
			if og[i] != oh[i] {
				t.Fatalf("round trip changed PO %d function", i)
			}
		}
	}
}

func TestReadAAGErrors(t *testing.T) {
	cases := []string{
		"",
		"not a header\n",
		"aag 1 1 1 1 0\n2\n", // latch present
		"aag x 0 0 0 0\n",
	}
	for _, c := range cases {
		if _, err := ReadAAG(bytes.NewBufferString(c)); err == nil {
			t.Errorf("ReadAAG(%q) should fail", c)
		}
	}
}

func TestTopologicalInvariant(t *testing.T) {
	// Fanins must always have smaller node ids than the node itself.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandom(rng, 4, 30)
		for i := uint32(1); i < uint32(g.NumNodes()); i++ {
			if !g.IsAnd(i) {
				continue
			}
			f0, f1 := g.Fanins(i)
			if f0.Node() >= i || f1.Node() >= i {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestSimulatePanicOnBadInput(t *testing.T) {
	g := New("p")
	g.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Errorf("Simulate with wrong PI count must panic")
		}
	}()
	g.Simulate(nil)
}

func BenchmarkAndStrash(b *testing.B) {
	g := New("bench")
	a := g.AddPI("")
	c := g.AddPI("")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.And(a, c)
	}
}

func BenchmarkSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := buildRandom(rng, 16, 2000)
	ins := make([]uint64, g.NumPIs())
	for i := range ins {
		ins[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Simulate(ins)
	}
}
