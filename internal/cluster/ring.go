// Package cluster is the peer layer that turns N independent tlsd
// daemons into one self-healing service. It consistent-hashes
// content-addressed artifact keys across the member nodes (virtual
// nodes on a hash ring, deterministic placement — every node computes
// the same owner for a key with no coordination), routes work to the
// key's owner so the cluster runs each simulation once, replicates
// committed artifacts to ring successors, and runs a failure detector
// whose heartbeats gossip each node's journaled-pending jobs so that
// a dead node's unfinished work is adopted by its ring successor.
// Every execution — requested, recovered or adopted — first takes a
// quorum-acknowledged execution lease (lease.go), so no key runs twice
// however the adopters, the rebooted owner and late requests race.
//
// The layer leans on two properties the rest of the repo already
// guarantees: artifacts are immutable and self-verifying (SHA-256
// content addressing, internal/store), so replication needs no
// versioning or conflict handling — any copy is the copy; and jobs
// are deterministic and idempotent (same key → byte-identical
// artifact), so a double execution would waste cycles but could never
// corrupt state. The lease and single-owner routing exist to make
// double-execution *absent*, not because it would be unsafe.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the number of virtual nodes each member projects
// onto the ring. With stratified placement (see NewRing) the arc
// imbalance shrinks as 1/sqrt(vnodes); 384 holds every node's share
// of the hash space within a few percent of 1/N and the empirical
// share of 1000 keys within the ±15% balance bound the ring tests
// enforce. Construction stays trivial: N×384 points, sorted once at
// boot, never on the request path.
const DefaultVNodes = 384

// Ring is an immutable consistent-hash ring. Build one with NewRing;
// membership changes build a new Ring (they are rare — a config
// change, not a failure — and immutability makes concurrent readers
// free). Failure handling does NOT rebuild the ring: dead nodes stay
// on the ring and routing walks past them (see Cluster.Route),
// so keys move back to their home node the moment it returns.
type Ring struct {
	nodes  []string // sorted member ids
	points []point  // sorted by hash
	vnodes int
}

type point struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given member ids with v virtual
// nodes per member (v<=0 uses DefaultVNodes). Placement depends only
// on the sorted id set, so every member computes an identical ring.
//
// Vnode placement is stratified rather than fully hashed: the circle
// is divided into v equal strata and vnode i of every node lands in
// stratum i, at a per-(node,i) hashed offset within it. Each stratum
// therefore holds exactly one point per node, which kills the
// long-range clumping of pure random placement (where one node's
// points can by chance crowd a large arc) while keeping everything a
// pure deterministic function of the id set. Joins and leaves keep
// the classic consistent-hashing movement bound: a new node's points
// only split existing arcs, so keys move only to the joiner.
func NewRing(nodes []string, v int) *Ring {
	if v <= 0 {
		v = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	r := &Ring{nodes: sorted, vnodes: v}
	r.points = make([]point, 0, len(sorted)*v)
	stride := ^uint64(0)/uint64(v) + 1
	for _, n := range sorted {
		for i := 0; i < v; i++ {
			jitter := hash64(fmt.Sprintf("%s#%d", n, i)) % stride
			r.points = append(r.points, point{hash: uint64(i)*stride + jitter, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node id so placement stays deterministic even in
		// the astronomically unlikely event of a 64-bit hash collision.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// hash64 hashes keys onto the circle (and vnode labels to their
// in-stratum jitter): the first 8 bytes of SHA-256. Artifact keys are
// themselves SHA-256 hex (uniformly distributed), but hashing again
// keeps arbitrary strings uniform too and costs nothing off the
// request path's hot loop (one SHA-256 per routed request).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the sorted member ids.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the member that owns key: the node of the first ring
// point at or clockwise of the key's hash.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}

// Successors returns up to n distinct members in ring order starting
// at the key's owner (owner first, then its successors). n > len
// (members) is truncated. This is both the replica set (owner +
// ring-replicas successors) and the adoption order (first *alive*
// entry is the acting owner).
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// search returns the index of the first point at or clockwise of the
// key's hash (wrapping to 0 past the last point).
func (r *Ring) search(key string) int {
	i := r.searchHash(hash64(key))
	return i
}

func (r *Ring) searchHash(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// ownerAt returns the owner of a raw ring position — the
// ownership-diff computation compares two rings point by point.
func (r *Ring) ownerAt(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.searchHash(h)].node
}
