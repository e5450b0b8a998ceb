package aig

// Structural cone hashing. Every node gets a 64-bit hash of its transitive
// fanin cone; the graph as a whole gets a content address derived from the
// PO cones. Two flavours exist because two different consumers need
// different invariances:
//
//   - ConeHashes mixes the two fanin hashes in *stored* order. Stored order
//     is exactly the order cut enumeration merges fanin lists in, so equal
//     ordered hashes certify that translated cut lists are byte-equal to
//     freshly enumerated ones. This is the ECO-alignment hash.
//
//   - The canonical flavour sorts the two (hash, complement) fanin pairs
//     before mixing, making the hash invariant under node-id permutation
//     (And() normalises operands by literal value, so a permutation of ids
//     can flip the stored pair). StructuralHash combines the canonical PO
//     cone hashes commutatively, so it is also insensitive to PO
//     declaration order. This is the content-address hash.

// Domain-separation tags for the mixer.
const (
	hashTagConst uint64 = 0x9e3779b97f4a7c15
	hashTagPI    uint64 = 0xbf58476d1ce4e5b9
	hashTagAnd   uint64 = 0x94d049bb133111eb
	hashTagPO    uint64 = 0xd6e8feb86659fd93
)

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// faninHash folds a fanin edge (cone hash + complement bit) into one word.
func faninHash(h uint64, compl bool) uint64 {
	if compl {
		return h ^ 0xa5a5a5a5a5a5a5a5
	}
	return h
}

// coneHashes computes per-node cone hashes in one ascending (topological)
// pass. When canonical is true the two fanin words are sorted before mixing.
func (g *AIG) coneHashes(canonical bool) []uint64 {
	hs := make([]uint64, len(g.nodes))
	hs[0] = mix64(hashTagConst)
	pi := 0
	for i := 1; i < len(g.nodes); i++ {
		nd := &g.nodes[i]
		switch nd.typ {
		case typePI:
			hs[i] = mix64(hashTagPI ^ mix64(uint64(pi)+1))
			pi++
		case typeAnd:
			a := faninHash(hs[nd.f0.Node()], nd.f0.IsCompl())
			b := faninHash(hs[nd.f1.Node()], nd.f1.IsCompl())
			if canonical && a > b {
				a, b = b, a
			}
			hs[i] = mix64(hashTagAnd ^ mix64(a) ^ mix64(mix64(b)))
		}
	}
	return hs
}

// ConeHashes returns the ordered structural cone hash of every node:
// identical hashes certify isomorphic cones including stored fanin order.
// Used to align an edited graph against a cached baseline for ECO
// delta-remapping.
func (g *AIG) ConeHashes() []uint64 { return g.coneHashes(false) }

// StructuralHash returns a 64-bit content address of the graph's
// PO-reachable structure. It is invariant under node-id permutation and PO
// declaration order, and ignores names and dead (PO-unreachable) nodes, so
// it is stable across AIGER and BLIF encode→decode round-trips.
func (g *AIG) StructuralHash() uint64 {
	hs := g.coneHashes(true)
	// Commutative PO combine: sum and xor over the per-PO mixed words so
	// declaration order cannot matter, then bind in the interface shape.
	var sum, xor uint64
	for _, po := range g.pos {
		w := mix64(hashTagPO ^ faninHash(hs[po.Lit.Node()], po.Lit.IsCompl()))
		sum += w
		xor ^= w
	}
	h := mix64(sum ^ mix64(xor))
	h = mix64(h ^ mix64(uint64(len(g.pis))+0x10001))
	h = mix64(h ^ mix64(uint64(len(g.pos))+0x20002))
	return h
}
