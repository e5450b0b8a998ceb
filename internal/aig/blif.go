package aig

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadBLIF parses a combinational BLIF model into an AIG. Each .names
// table is synthesised as a sum of products (cubes may use 0, 1 and -).
// Tables may appear in any order; dependencies are resolved recursively and
// combinational cycles are rejected. Latches and subcircuits are not
// supported.
func ReadBLIF(r io.Reader) (*AIG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // grows from 4 KiB up to a 16 MiB line

	type table struct {
		inputs []string
		output string
		cubes  []string
		onSet  bool // true when cube outputs are '1'
	}

	var (
		modelName string
		inputs    []string
		outputs   []string
		tables    []*table
		current   *table
	)

	// Lines may be continued with a trailing backslash.
	readLogical := func() (string, bool) {
		var parts []string
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if strings.HasSuffix(line, "\\") {
				parts = append(parts, strings.TrimSuffix(line, "\\"))
				continue
			}
			parts = append(parts, line)
			return strings.Join(parts, " "), true
		}
		return strings.Join(parts, " "), len(parts) > 0
	}

	for {
		line, ok := readLogical()
		if !ok {
			break
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				modelName = fields[1]
			}
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			current = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			current = nil
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: .names without signals")
			}
			current = &table{
				inputs: fields[1 : len(fields)-1],
				output: fields[len(fields)-1],
				onSet:  true,
			}
			tables = append(tables, current)
		case ".end":
			current = nil
		case ".latch", ".subckt", ".gate":
			return nil, fmt.Errorf("blif: %s is not supported (combinational .names models only)", fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, fmt.Errorf("blif: unsupported directive %s", fields[0])
			}
			if current == nil {
				return nil, fmt.Errorf("blif: cube line %q outside a .names table", line)
			}
			switch {
			case len(current.inputs) == 0 && len(fields) == 1:
				// Constant-one table: a bare "1" line.
				if fields[0] != "1" {
					return nil, fmt.Errorf("blif: bad constant table line %q", line)
				}
				current.cubes = append(current.cubes, "")
			case len(fields) == 2:
				if len(fields[0]) != len(current.inputs) {
					return nil, fmt.Errorf("blif: cube %q width %d, want %d", fields[0], len(fields[0]), len(current.inputs))
				}
				switch fields[1] {
				case "1":
					current.onSet = true
				case "0":
					current.onSet = false
				default:
					return nil, fmt.Errorf("blif: bad cube output %q", fields[1])
				}
				current.cubes = append(current.cubes, fields[0])
			default:
				return nil, fmt.Errorf("blif: malformed cube line %q", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 && len(tables) == 0 {
		return nil, fmt.Errorf("blif: empty model")
	}

	g := New(modelName)
	sig := make(map[string]Lit, len(inputs)+len(tables))
	for _, name := range inputs {
		if _, dup := sig[name]; dup {
			return nil, fmt.Errorf("blif: duplicate input %s", name)
		}
		sig[name] = g.AddPI(name)
	}
	byOutput := make(map[string]*table, len(tables))
	for _, t := range tables {
		if _, dup := byOutput[t.output]; dup {
			return nil, fmt.Errorf("blif: signal %s defined twice", t.output)
		}
		if _, isPI := sig[t.output]; isPI {
			return nil, fmt.Errorf("blif: table drives input %s", t.output)
		}
		byOutput[t.output] = t
	}

	const inProgress = ^Lit(0) - 1
	var resolve func(name string) (Lit, error)
	resolve = func(name string) (Lit, error) {
		if l, ok := sig[name]; ok {
			if l == inProgress {
				return 0, fmt.Errorf("blif: combinational cycle through %s", name)
			}
			return l, nil
		}
		t, ok := byOutput[name]
		if !ok {
			return 0, fmt.Errorf("blif: undefined signal %s", name)
		}
		sig[name] = inProgress
		ins := make([]Lit, len(t.inputs))
		for i, in := range t.inputs {
			l, err := resolve(in)
			if err != nil {
				return 0, err
			}
			ins[i] = l
		}
		out := ConstFalse
		for _, cube := range t.cubes {
			term := ConstTrue
			for i, c := range cube {
				switch c {
				case '1':
					term = g.And(term, ins[i])
				case '0':
					term = g.And(term, ins[i].Not())
				case '-':
				default:
					return 0, fmt.Errorf("blif: bad cube character %q in table %s", string(c), name)
				}
			}
			out = g.Or(out, term)
		}
		if !t.onSet {
			out = out.Not()
		}
		sig[name] = out
		return out, nil
	}

	for _, name := range outputs {
		l, err := resolve(name)
		if err != nil {
			return nil, err
		}
		g.AddPO(name, l)
	}
	return g, nil
}
