package mapper

import (
	"fmt"

	"slap/internal/aig"
	"slap/internal/netlist"
)

// buildNetlist materialises the selected cover as a gate-level netlist.
// Polarity is handled with shared inverters: each subject node has at most
// one positive and one negative net, created lazily, so a signal consumed
// in both polarities pays for a single inverter.
func (st *Stream) buildNetlist() (*netlist.Netlist, error) {
	g := st.g
	inv := st.m.lib.Inv
	nl := netlist.New(g.Name)

	posNet := make([]netlist.Net, g.NumNodes())
	negNet := make([]netlist.Net, g.NumNodes())
	for i := range posNet {
		posNet[i] = -1
		negNet[i] = -1
	}
	for i, pi := range g.PIs() {
		posNet[pi] = nl.AddPI(g.PIName(i))
	}

	// getNet returns the net of a node in the requested polarity, adding a
	// shared inverter when only the opposite polarity exists.
	getNet := func(node uint32, compl bool) (netlist.Net, error) {
		if g.IsConst(node) {
			if compl {
				return netlist.Const1, nil
			}
			return netlist.Const0, nil
		}
		if compl {
			if negNet[node] >= 0 {
				return negNet[node], nil
			}
			if posNet[node] < 0 {
				return -1, fmt.Errorf("mapper: node %d used before mapping", node)
			}
			negNet[node] = nl.AddCell(inv, []netlist.Net{posNet[node]})
			return negNet[node], nil
		}
		if posNet[node] >= 0 {
			return posNet[node], nil
		}
		if negNet[node] < 0 {
			return -1, fmt.Errorf("mapper: node %d used before mapping", node)
		}
		posNet[node] = nl.AddCell(inv, []netlist.Net{negNet[node]})
		return posNet[node], nil
	}

	for _, n := range st.Cover() {
		c, match, ok := st.Choice(n)
		if !ok {
			return nil, fmt.Errorf("mapper: covered node %d has no match (policy removed all matchable cuts)", n)
		}
		gate := match.Gate
		pins := make([]netlist.Net, gate.NumPins)
		for i := 0; i < gate.NumPins; i++ {
			leaf := c.Leaves[match.Perm[i]]
			compl := match.Phase>>uint(i)&1 == 1
			net, err := getNet(leaf, compl)
			if err != nil {
				return nil, err
			}
			pins[i] = net
		}
		out := nl.AddCell(gate, pins)
		if match.OutNeg {
			negNet[n] = out
		} else {
			posNet[n] = out
		}
	}

	for _, po := range g.POs() {
		net, err := poNet(g, po.Lit, getNet)
		if err != nil {
			return nil, err
		}
		nl.AddPO(po.Name, net)
	}
	return nl, nil
}

func poNet(g *aig.AIG, lit aig.Lit, getNet func(uint32, bool) (netlist.Net, error)) (netlist.Net, error) {
	return getNet(lit.Node(), lit.IsCompl())
}
