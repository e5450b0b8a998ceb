package aig

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteAAG writes the graph in the ASCII AIGER (aag) format, including a
// symbol table for the primary inputs and outputs.
//
// Because the in-memory graph is structurally hashed and created in
// topological order, the emitted file always satisfies the AIGER ordering
// rule (definitions precede uses).
func (g *AIG) WriteAAG(w io.Writer) error {
	bw := bufio.NewWriter(w)
	maxVar := len(g.nodes) - 1
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", maxVar, len(g.pis), len(g.pos), g.NumAnds())
	for _, id := range g.pis {
		fmt.Fprintf(bw, "%d\n", MakeLit(id, false))
	}
	for _, po := range g.pos {
		fmt.Fprintf(bw, "%d\n", po.Lit)
	}
	for i := 1; i < len(g.nodes); i++ {
		nd := &g.nodes[i]
		if nd.typ != typeAnd {
			continue
		}
		fmt.Fprintf(bw, "%d %d %d\n", MakeLit(uint32(i), false), nd.f0, nd.f1)
	}
	for i := range g.pis {
		fmt.Fprintf(bw, "i%d %s\n", i, g.piName[i])
	}
	for i, po := range g.pos {
		fmt.Fprintf(bw, "o%d %s\n", i, po.Name)
	}
	if g.Name != "" {
		fmt.Fprintf(bw, "c\n%s\n", g.Name)
	}
	return bw.Flush()
}

// ReadAAG parses an ASCII AIGER (aag) combinational file into a new AIG.
// Latches are not supported. The graph is rebuilt through the structural
// hashing constructor, so the result is functionally equivalent to the file
// but may contain fewer nodes.
func ReadAAG(r io.Reader) (*AIG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from 4 KiB up to a 16 MiB line
	if !sc.Scan() {
		return nil, fmt.Errorf("aiger: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 6 || header[0] != "aag" {
		return nil, fmt.Errorf("aiger: bad header %q", sc.Text())
	}
	nums := make([]int, 5)
	for i := 0; i < 5; i++ {
		v, err := strconv.Atoi(header[i+1])
		if err != nil {
			return nil, fmt.Errorf("aiger: bad header field %q: %v", header[i+1], err)
		}
		if v < 0 {
			return nil, fmt.Errorf("aiger: negative header field %d", v)
		}
		nums[i] = v
	}
	maxVar, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nLatch != 0 {
		return nil, fmt.Errorf("aiger: latches are not supported (combinational AIGs only)")
	}
	// The variable count must cover all declared definitions, and absurd
	// counts (beyond any graph this toolkit handles, or a uint32 literal)
	// are rejected outright.
	const maxReasonable = 1 << 26
	if maxVar > maxReasonable || nOut > maxReasonable {
		return nil, fmt.Errorf("aiger: header counts too large (maxVar %d, outputs %d)", maxVar, nOut)
	}
	if nIn+nAnd > maxVar {
		return nil, fmt.Errorf("aiger: %d inputs + %d ANDs exceed maxVar %d", nIn, nAnd, maxVar)
	}

	g := New("")
	// Every table grows with what the body delivers, never with the
	// header's counts. vars maps file variables to graph literals: densely
	// while a variable stays within a multiple of the definitions read so
	// far, sparsely beyond, so neither a header nor one far-out literal
	// allocates what the body does not back.
	const unset = ^Lit(0)
	maxLit := uint64(2*maxVar + 1)
	vars := make([]Lit, 1, min(maxVar+1, 1<<12))
	vars[0] = ConstFalse
	var sparse map[uint64]Lit
	defs := uint64(0)
	define := func(v uint64, l Lit) {
		defs++
		if v >= uint64(len(vars)) && v < 2*defs+4096 {
			for uint64(len(vars)) <= v {
				vars = append(vars, unset)
			}
		}
		if v < uint64(len(vars)) {
			vars[v] = l
			return
		}
		if sparse == nil {
			sparse = make(map[uint64]Lit)
		}
		sparse[v] = l
	}
	mapLit := func(fileLit uint64) (Lit, error) {
		if fileLit > maxLit {
			return 0, fmt.Errorf("aiger: literal %d out of range", fileLit)
		}
		v := fileLit >> 1
		l := unset
		if v < uint64(len(vars)) {
			l = vars[v]
		}
		if l == unset {
			if sl, ok := sparse[v]; ok {
				l = sl
			}
		}
		if l == unset {
			return 0, fmt.Errorf("aiger: literal %d used before definition", fileLit)
		}
		return l.NotIf(fileLit&1 == 1), nil
	}

	readLit := func() (uint64, error) {
		if !sc.Scan() {
			return 0, fmt.Errorf("aiger: unexpected end of file")
		}
		var v [1]uint64
		if scanLits(sc.Bytes(), v[:]) {
			return v[0], nil
		}
		return strconv.ParseUint(strings.TrimSpace(sc.Text()), 10, 32)
	}
	// defVar validates a definition literal (PI or AND output) against the
	// header's maxVar and returns its variable.
	defVar := func(fileLit uint64) (uint64, error) {
		if fileLit < 2 || fileLit > maxLit {
			return 0, fmt.Errorf("aiger: definition literal %d out of range (maxVar %d)", fileLit, maxVar)
		}
		return fileLit >> 1, nil
	}

	for i := 0; i < nIn; i++ {
		v, err := readLit()
		if err != nil {
			return nil, err
		}
		def, err := defVar(v)
		if err != nil {
			return nil, err
		}
		define(def, g.AddPI(""))
	}
	var poLits []uint64
	for i := 0; i < nOut; i++ {
		v, err := readLit()
		if err != nil {
			return nil, err
		}
		poLits = append(poLits, v)
	}
	for i := 0; i < nAnd; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("aiger: unexpected end of file in AND section")
		}
		var vals [3]uint64
		if !scanLits(sc.Bytes(), vals[:]) {
			f := strings.Fields(sc.Text())
			if len(f) != 3 {
				return nil, fmt.Errorf("aiger: bad AND line %q", sc.Text())
			}
			for j := 0; j < 3; j++ {
				v, err := strconv.ParseUint(f[j], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("aiger: bad AND literal %q: %v", f[j], err)
				}
				vals[j] = v
			}
		}
		a, err := mapLit(vals[1])
		if err != nil {
			return nil, err
		}
		b, err := mapLit(vals[2])
		if err != nil {
			return nil, err
		}
		def, err := defVar(vals[0])
		if err != nil {
			return nil, err
		}
		define(def, g.And(a, b).NotIf(vals[0]&1 == 1))
	}

	poNames := make(map[int]string)
	piNames := make(map[int]string)
	for sc.Scan() {
		line := sc.Text()
		if line == "c" {
			if sc.Scan() {
				g.Name = strings.TrimSpace(sc.Text())
			}
			break
		}
		if len(line) < 2 {
			continue
		}
		rest := strings.Fields(line[1:])
		if len(rest) == 0 {
			continue
		}
		idx, err := strconv.Atoi(rest[0])
		if err != nil {
			continue
		}
		name := ""
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			name = line[sp+1:]
		}
		switch line[0] {
		case 'i':
			piNames[idx] = name
		case 'o':
			poNames[idx] = name
		}
	}
	for i, name := range piNames {
		if i >= 0 && i < len(g.piName) && name != "" {
			g.piName[i] = name
		}
	}
	for i, lit := range poLits {
		l, err := mapLit(lit)
		if err != nil {
			return nil, err
		}
		g.AddPO(poNames[i], l)
	}
	return g, sc.Err()
}

// scanLits parses line as exactly len(out) unsigned decimal fields below
// 2^32, separated by ASCII white space, without allocating. On anything
// else (a sign, a non-ASCII space, overflow, a wrong field count) it
// reports false, and the caller's strconv path decides as before.
func scanLits(line []byte, out []uint64) bool {
	i := 0
	for k := range out {
		for i < len(line) && isASCIISpace(line[i]) {
			i++
		}
		start := i
		var v uint64
		for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
			v = 10*v + uint64(line[i]-'0')
			if v > math.MaxUint32 {
				return false
			}
		}
		if i == start {
			return false
		}
		out[k] = v
	}
	for i < len(line) && isASCIISpace(line[i]) {
		i++
	}
	return i == len(line)
}

func isASCIISpace(b byte) bool { return b == ' ' || '\t' <= b && b <= '\r' }
