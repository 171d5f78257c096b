// Package cluster turns N PDAgent gateways into one logical middle
// tier (DESIGN.md §6). One Node per gateway holds the pieces the
// federation needs:
//
//   - identity: every intra-cluster request carries the shared secret,
//     its origin member and that member's fencing epoch (stamp), and
//     every /cluster/ endpoint runs one check on it (vet): the secret,
//     then the origin's fence, so a fenced zombie is refused
//     everywhere;
//   - membership: a static seed list bootstraps the view; periodic
//     heartbeat gossip over the shared transport keeps it live,
//     carries per-member load (queue depth, in-flight agents) and
//     drives failure suspicion and eviction;
//   - placement: a consistent-hash ring with virtual nodes maps each
//     subscription key to a home gateway, skipping suspect, draining
//     and overloaded members (load-aware spill);
//   - location directory: a replicated agent-location table with
//     forwarding pointers, updated from MAS arrival/departure hooks
//     and reconciled by per-agent sequence numbers, so any member can
//     route status chases and result fetches to the agent's current
//     MAS;
//   - forwarding: Node.Forward proxies mis-homed requests between
//     members with loop protection.
//
// Everything here is deterministic when driven manually (Node.Tick on
// a simulated world); Node.Start runs the same tick on a wall-clock
// interval for the real daemons.
package cluster

import (
	"sort"
	"strconv"
)

// VirtualNodes is the per-member virtual node count of the
// placement ring. 64 points per member keeps the key share within a
// few percent of 1/N for small fleets while the ring stays tiny.
const VirtualNodes = 64

// fnv64a hashes a key for ring placement (FNV-1a, inlined like the
// gateway registry's shard hash so placement allocates nothing).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	addr string
}

// Ring is an immutable consistent-hash ring over a member set. Build
// one with NewRing whenever the member set changes; lookups are
// lock-free. With virtual nodes, a member joining or leaving moves
// only ~K/N of K keys (see TestRingRebalance).
type Ring struct {
	points  []ringPoint
	members []string
}

// NewRing builds a ring with VirtualNodes points per member. Member
// order does not matter; the ring is a pure function of the set.
func NewRing(members []string) *Ring {
	r := &Ring{members: append([]string(nil), members...)}
	sort.Strings(r.members)
	r.points = make([]ringPoint, 0, len(members)*VirtualNodes)
	var buf []byte
	for _, m := range r.members {
		for v := 0; v < VirtualNodes; v++ {
			buf = append(append(buf[:0], m...), '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.points = append(r.points, ringPoint{hash: fnv64a(string(buf)), addr: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string { return r.members }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].addr
}

// OwnerSkipping walks the ring clockwise from key's position and
// returns the first member for which skip returns false. When every
// member is skipped it falls back to the plain owner — under global
// overload the ring still answers, it just cannot spill. Returns ""
// only on an empty ring.
func (r *Ring) OwnerSkipping(key string, skip func(addr string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	start := r.search(key)
	seen := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points) && len(seen) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.addr] {
			continue
		}
		seen[p.addr] = true
		if !skip(p.addr) {
			return p.addr
		}
	}
	return r.points[start].addr
}

// search returns the index of the first ring point at or after key's
// hash, wrapping to 0.
func (r *Ring) search(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// SubscriptionKey is the placement key of one (codeID, owner)
// subscription — the unit the ring distributes over the fleet, so one
// device's dispatches for one application always land on the same
// home gateway (its journal, program pin and result store).
func SubscriptionKey(codeID, owner string) string {
	return codeID + "\x00" + owner
}
