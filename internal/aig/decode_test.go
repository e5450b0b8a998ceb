package aig

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// small returns a two-input AND graph for round-tripping.
func small() *AIG {
	g := New("small")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO("o", g.And(a, b))
	return g
}

func TestDecodeAutoAAG(t *testing.T) {
	var buf bytes.Buffer
	if err := small().WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := DecodeAuto(&buf)
	if err != nil {
		t.Fatalf("DecodeAuto(aag): %v", err)
	}
	if g.NumPIs() != 2 || g.NumPOs() != 1 {
		t.Fatalf("decoded %d PIs / %d POs, want 2/1", g.NumPIs(), g.NumPOs())
	}
}

func TestDecodeAutoBLIF(t *testing.T) {
	blif := `# a comment first
.model tiny
.inputs a b
.outputs o
.names a b o
11 1
.end
`
	g, err := Decode("auto", strings.NewReader(blif))
	if err != nil {
		t.Fatalf("Decode(auto, blif): %v", err)
	}
	if g.NumPIs() != 2 || g.NumPOs() != 1 {
		t.Fatalf("decoded %d PIs / %d POs, want 2/1", g.NumPIs(), g.NumPOs())
	}
}

func TestDecodeExplicitFormats(t *testing.T) {
	var buf bytes.Buffer
	if err := small().WriteAAG(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode("aag", bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("Decode(aag): %v", err)
	}
	if _, err := Decode("aiger", bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("Decode(aiger): %v", err)
	}
	if _, err := Decode("bogus", bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Decode(bogus): expected error")
	}
}

func TestDecodeAutoGarbage(t *testing.T) {
	if _, err := DecodeAuto(strings.NewReader("not a circuit\n")); err == nil {
		t.Error("expected sniff failure on garbage input")
	}
	if _, err := DecodeAuto(strings.NewReader("")); err == nil {
		t.Error("expected sniff failure on empty input")
	}
	if _, err := DecodeAuto(strings.NewReader("# only comments\n\n")); err == nil {
		t.Error("expected sniff failure on comment-only input")
	}
}

func TestFormatForPath(t *testing.T) {
	cases := map[string]string{
		"x.blif": FormatBLIF,
		"x.aag":  FormatAAG,
		"x":      FormatAAG,
		"-":      FormatAuto,
	}
	for path, want := range cases {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestDecodeAllocBytes bounds the bytes one decode of the 2 KiB rc16
// design allocates in either format. The line buffer grows with the input,
// so a decode costs tens of KiB; a fixed 1 MiB line buffer exceeds both
// bounds.
func TestDecodeAllocBytes(t *testing.T) {
	aag, err := os.ReadFile("../server/testdata/rc16.aag")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadAAG(bytes.NewReader(aag))
	if err != nil {
		t.Fatal(err)
	}
	var blif bytes.Buffer
	if err := WriteBLIF(&blif, g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format string
		body   []byte
		limit  uint64
	}{
		{FormatAAG, aag, 64 << 10},
		{FormatBLIF, blif.Bytes(), 128 << 10},
	} {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Decode(tc.format, bytes.NewReader(tc.body)); err != nil {
				t.Fatalf("%s: %v", tc.format, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > tc.limit {
			t.Errorf("%s: decoding rc16 allocates %d bytes, want under %d", tc.format, per, tc.limit)
		}
	}
}

// TestDecodeHostileHeaders bounds what a short AIGER body with hostile
// header counts costs: every table grows with what the body delivers, so
// each decode allocates under 1 MiB whether it succeeds or fails.
func TestDecodeHostileHeaders(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{"aag 67108864 0 0 0 0\n", true},
		{"aag 67108864 67108864 0 0 0\n", false},
		{"aag 67108864 0 0 67108864 0\n", false},
		// One input at the far end of the variable range.
		{"aag 67108864 1 0 1 0\n134217728\n134217729\n", true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeAuto(strings.NewReader(tc.body))
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok %v", tc.body, err, tc.ok)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%q: decoding allocated %d bytes, want under 1 MiB", tc.body, n)
		}
	}
}

// TestReadAAGSparseVariables decodes a file whose variables are numbered
// far apart and defined out of order: the sparse and dense
// tables must resolve every literal as one table would.
func TestReadAAGSparseVariables(t *testing.T) {
	body := "aag 100000 3 0 2 2\n200000\n4\n150000\n7\n9\n6 4 200001\n8 6 150000\n"
	g, err := ReadAAG(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPIs() != 3 || g.NumPOs() != 2 || g.NumAnds() != 2 {
		t.Fatalf("decoded %d PIs, %d POs, %d ANDs", g.NumPIs(), g.NumPOs(), g.NumAnds())
	}
	// PIs in file order: x (200000), y (4), z (150000). o0 = !(y & !x),
	// o1 = !(y & !x & z).
	for m := uint64(0); m < 8; m++ {
		x, y, z := m&1 == 1, m&2 == 2, m&4 == 4
		ins := []uint64{0, 0, 0}
		for i, b := range []bool{x, y, z} {
			if b {
				ins[i] = ^uint64(0)
			}
		}
		out := g.Simulate(ins)
		want0 := !(y && !x)
		want1 := !(y && !x && z)
		if (out[0] != 0) != want0 || (out[1] != 0) != want1 {
			t.Fatalf("x=%v y=%v z=%v: outputs %x %x, want %v %v", x, y, z, out[0], out[1], want0, want1)
		}
	}
	for _, bad := range []string{
		"aag 100000 1 0 1 0\n200000\n200003\n", // literal beyond maxVar
		"aag 100000 1 0 1 0\n200000\n199998\n", // in range, never defined
	} {
		if _, err := ReadAAG(strings.NewReader(bad)); err == nil {
			t.Errorf("%q decoded", bad)
		}
	}
}

// TestScanLitsAgreesWithStrconv checks the in-place literal scanner on the
// edge cases of the strconv path it stands in for: a line it accepts must
// give the same values there, and an ASCII line strconv accepts must not
// fall back.
func TestScanLitsAgreesWithStrconv(t *testing.T) {
	for _, line := range []string{
		"0", "7", "007", " 12\t", "4294967295", "4294967296", "99999999999999999999",
		"+1", "-1", "", "  ", "1 2", "2 4 6", " 2\t4  6 ", "2 4 6 8", "2 4", "2,4,6",
		"2 4 6\v", "2\r4\f6", "0x10", "1_0", "1\u00a02 3", "\u20032 4 6",
	} {
		for _, n := range []int{1, 3} {
			got := make([]uint64, n)
			ok := scanLits([]byte(line), got)
			f := strings.Fields(line)
			want := make([]uint64, n)
			wantOK := len(f) == n
			for j := 0; wantOK && j < n; j++ {
				v, err := strconv.ParseUint(f[j], 10, 32)
				want[j], wantOK = v, err == nil
			}
			ascii := strings.IndexFunc(line, func(r rune) bool { return r >= 0x80 }) < 0
			if ok && (!wantOK || !slices.Equal(got, want)) || !ok && wantOK && ascii {
				t.Errorf("%q as %d fields: scanned %v ok=%v, strconv gives %v ok=%v", line, n, got, ok, want, wantOK)
			}
		}
	}
}

// TestDecodeLongLine parses designs whose PI name makes one line longer
// than 1 MiB, in both formats.
func TestDecodeLongLine(t *testing.T) {
	long := strings.Repeat("x", 1<<20+100)
	for _, tc := range []struct{ format, body string }{
		{FormatAAG, "aag 1 1 0 1 0\n2\n2\ni0 " + long + "\no0 o\n"},
		{FormatBLIF, ".model m\n.inputs " + long + "\n.outputs o\n.names " + long + " o\n1 1\n.end\n"},
	} {
		g, err := Decode(tc.format, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.format, err)
		}
		if g.NumPIs() != 1 || g.PIName(0) != long {
			t.Fatalf("%s: long PI name lost", tc.format)
		}
	}
}
