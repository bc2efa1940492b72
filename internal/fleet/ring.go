package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over the fleet's Up machines: each
// machine contributes a fixed number of virtual nodes, each hashed to a
// point on a 64-bit circle. Placement for a function walks the circle
// clockwise from the function's own hash, so membership changes move
// only the keys adjacent to the machines that changed — the property
// that makes failover cheap and a rejoin re-balance automatic.
//
// Everything about the ring is deterministic: virtual-node hashes
// depend only on (machine index, vnode index), sorting ties break on
// the lower machine index, and walks dedup in circle order. Two fleets
// built from the same member set produce identical circles.
//
// A ring is immutable once built: the fleet replaces it on every
// membership change or ejection rather than editing it. So walk
// computes each key's order once and memoizes it for the life of the
// ring; the cache is dropped with the ring it belongs to. The fleet
// mutex guards the cache.
type ring struct {
	vnodes []vnode
	// machines is one past the largest member index: the size of the
	// seen-set order dedups with.
	machines int
	// orders memoizes walk per key. Only placement walks through it,
	// and placement only sees deployed names, so it holds at most one
	// entry per deployed function.
	orders map[string][]int
}

type vnode struct {
	hash    uint64
	machine int
}

// hash64 is FNV-1a, chosen because it is stable across processes and
// platforms (no seeds, no map iteration) — determinism is the point.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// buildRing hashes vnodesPer virtual nodes for each machine index in
// members onto the circle.
func buildRing(members []int, vnodesPer int) *ring {
	r := &ring{orders: make(map[string][]int)}
	for _, m := range members {
		r.machines = max(r.machines, m+1)
		for v := 0; v < vnodesPer; v++ {
			r.vnodes = append(r.vnodes, vnode{
				hash:    hash64(fmt.Sprintf("machine-%d/vnode-%d", m, v)),
				machine: m,
			})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].machine < r.vnodes[j].machine
	})
	return r
}

// walk returns every distinct machine in clockwise circle order starting
// from key's hash point. The first entry is the key's preferred machine;
// the rest are its failover/replica order. The order is computed on the
// key's first walk and cached for the life of the ring: the returned
// slice is shared and read-only.
func (r *ring) walk(key string) []int {
	if o, ok := r.orders[key]; ok {
		return o
	}
	o := r.order(key)
	if o != nil {
		r.orders[key] = o
	}
	return o
}

// order computes key's walk without touching the cache: the replica
// paths use it, since Deploy sees names that may never deploy.
func (r *ring) order(key string) []int {
	if len(r.vnodes) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	seen := make([]bool, r.machines)
	var out []int
	for n := 0; n < len(r.vnodes); n++ {
		v := r.vnodes[(start+n)%len(r.vnodes)]
		if !seen[v.machine] {
			seen[v.machine] = true
			out = append(out, v.machine)
		}
	}
	return out
}
