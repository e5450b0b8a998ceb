package aig

import (
	"bytes"
	"os"
	"runtime"
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
