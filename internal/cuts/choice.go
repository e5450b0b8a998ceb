// Choice-aware enumeration: a ChoiceSource tells the enumerator which other
// nodes compute the same function as a node being merged (up to polarity),
// and the enumerator appends those members' final cut lists to the node's
// own merged list. Mapping then matches the union of the structural variants
// — the "choice network" idea of ABC's &if -C / also's choice_lut_mapper —
// without the mapper or any policy knowing choices exist.
//
// Correctness rests on one eligibility rule the source must guarantee (and
// internal/choice does): every member m of node n satisfies id(m) < id(n)
// AND level(m) < level(n), both strict. Index-order drivers then see m's
// final list before visiting n, level-order drivers finish m's level before
// n's level starts (no same-level races), and streaming consumers observe
// member-cut leaves at levels strictly below n's, so arrivals are final when
// n's level is sunk. The retirement plan keeps member lists alive until
// their choice consumers are merged (see buildLevelPlan).
package cuts

// ChoiceMember identifies one alternative implementation of a node: Node
// computes the same function (complemented when Compl is set). Members must
// satisfy the id/level eligibility rule above.
type ChoiceMember struct {
	Node  uint32
	Compl bool
}

// ChoiceSource exposes a node's equivalence-class members to the
// enumerator. MembersOf must be safe for concurrent calls and return a
// deterministic, id-sorted slice (or nil) that the caller will not mutate.
type ChoiceSource interface {
	MembersOf(n uint32) []ChoiceMember
}

// enrichChoices appends translated copies of each class member's cut list
// to n's merged list: leaves are interned into this node's storage (member
// storage may retire first under streaming), the function is complemented
// when the member's polarity differs, and duplicates against cuts already
// in the list are rejected through the scratch dedupe table (still seeded
// from mergeNode for this node). A member's trivial cut {m} becomes a legal
// single-leaf cut of n — the buffer/inverter choice.
func (s *scratch) enrichChoices(e *Enumerator, res *Result, n uint32, out []Cut) []Cut {
	for _, mem := range e.Choices.MembersOf(n) {
		for i := range res.Sets[mem.Node] {
			if len(out) >= MergeCap {
				return out
			}
			c := &res.Sets[mem.Node][i]
			if s.seen(c.Leaves, out) {
				continue
			}
			f := c.TT
			if mem.Compl {
				f = f.Not()
			}
			if len(out) == cap(out) {
				out = s.growCutList(out)
			}
			out = append(out, Cut{
				Leaves: s.internLeaves(c.Leaves),
				Sig:    c.Sig,
				TT:     f,
				Volume: c.Volume,
				Choice: true,
			})
		}
	}
	return out
}
