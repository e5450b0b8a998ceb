// Package fleet scales the mapping service past one machine: a
// coordinator fronts a pool of slap-serve worker nodes, routing /v1/map
// and /v1/classify traffic by consistent hashing on the design's
// structural hash — so resubmissions and ECO edits of the same design
// land on the worker whose result cache and choice views are already warm —
// probing worker health, retrying dead workers on the next ring replica,
// shedding load when the whole fleet is saturated, and fanning dataset
// sweeps out as checksummed genjob shards that merge centrally,
// byte-identical to a single-process run.
package fleet

import (
	"sort"
)

// DefaultVNodes is the number of virtual nodes each worker contributes to
// the ring. 64 points per worker keeps the keyspace split within a few
// percent of even for small fleets while a membership change still moves
// only ~1/N of the keys.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// member.
type ringPoint struct {
	hash   uint64
	member int32
}

// Ring is an immutable consistent-hash ring over worker names. Positions
// depend only on the member names (not join order, not process identity),
// so a coordinator restart with the same membership reproduces the exact
// same routing — that determinism is what keeps affinity warm across
// coordinator redeploys.
type Ring struct {
	points  []ringPoint
	members []string
}

// mix64 is the splitmix64 finalizer (same mixer internal/aig uses for
// structural hashing).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// memberHash hashes a member name to a stable 64-bit seed (FNV-1a then
// avalanched), from which its virtual nodes are derived.
func memberHash(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return mix64(h)
}

// NewRing builds a ring over the given member names with vnodes virtual
// nodes each (<= 0 means DefaultVNodes). Member order is irrelevant; nil
// or empty membership yields an empty ring whose lookups return nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	// Sort a copy so equal membership sets build identical rings
	// regardless of the order workers registered in.
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	r := &Ring{
		members: ms,
		points:  make([]ringPoint, 0, len(ms)*vnodes),
	}
	for mi, name := range ms {
		seed := memberHash(name)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   mix64(seed ^ mix64(uint64(v)+0x9e3779b97f4a7c15)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by member name so even a hash collision cannot make
		// the ring order depend on input order.
		return r.members[r.points[i].member] < r.members[r.points[j].member]
	})
	return r
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// Lookup returns up to n distinct members in preference order for key: the
// owner of the first ring point clockwise of the key, then the owners of
// the following points, each member listed once. n <= 0 (or n larger than
// the membership) returns every member, making the result a full failover
// order.
func (r *Ring) Lookup(key uint64, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		out = append(out, r.members[p.member])
	}
	return out
}

// Owner returns the primary member for key ("" on an empty ring).
func (r *Ring) Owner(key uint64) string {
	m := r.Lookup(key, 1)
	if len(m) == 0 {
		return ""
	}
	return m[0]
}

// ShardKey maps a dataset shard id onto the ring keyspace, so shard
// executions of a repeated sweep keep landing on the same workers.
func ShardKey(shard int) uint64 {
	return mix64(uint64(shard) + 0xd6e8feb86659fd93)
}
