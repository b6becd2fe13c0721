package membership

import (
	"sort"

	"paw/internal/layout"
	"paw/internal/placement"
)

// Consistent-hashing placement with virtual nodes: the movement-bounding
// baseline of the rebalancer. Placement is a pure function of (partition
// set, member set, replica count): every member owns vnodes points on a
// 64-bit hash ring and a partition's replica set is the first R distinct
// members walking clockwise from the partition's own hash. Because a
// joining member only claims the ring arcs its points land on — and a
// leaving member only releases its own arcs — the partitions that change
// owners between any two member sets differing by one worker is ≈ P·R/(N+1)
// in expectation, not the full P·R a modular rule reshuffles.

// vnodes is the virtual-node count per member. 64 points keep the
// per-member load imbalance within a few percent for the fleet sizes this
// system targets while the ring stays tiny (N·64 points). It is a constant,
// not a setting, so master and workers cannot disagree about it.
const vnodes = 64

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on 64 bits.
// The repo avoids external deps and the ring needs a fast, well-mixed,
// deterministic hash — plain FNV over short mostly-zero inputs clusters
// badly enough to skew arc lengths, so every ring key goes through this.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const golden = 0x9e3779b97f4a7c15 // 2^64/phi, the usual odd mixing constant

func hashPoint(worker, vnode int) uint64 {
	return mix64(mix64(uint64(int64(worker))+1)*golden ^ mix64(uint64(int64(vnode))+golden))
}

func hashPartition(id layout.ID) uint64 {
	// Domain-separated from ring points by the extra constant.
	return mix64(uint64(int64(id))*golden + 0x6a09e667f3bcc909)
}

// ringPoint is one virtual node: its position and the member owning it.
type ringPoint struct {
	pos    uint64
	worker int
}

// Ring is a sealed consistent-hash ring over a member set.
type Ring struct {
	points  []ringPoint
	workers int // distinct members on the ring
}

// NewRing builds the ring for the given member indices with vnodes points
// each. Ties on ring position are broken by worker index so the ring is a
// pure function of its inputs.
func NewRing(workers []int) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(workers)*vnodes), workers: len(workers)}
	for _, w := range workers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pos: hashPoint(w, v), worker: w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// Owners returns the first n distinct members clockwise from id's hash —
// the partition's replica set, primary first. Fewer than n members on the
// ring returns them all.
func (r *Ring) Owners(id layout.ID, n int) []int {
	if len(r.points) == 0 {
		return nil
	}
	if n > r.workers {
		n = r.workers
	}
	h := hashPartition(id)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].pos >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	return out
}

// RingPlacement places every partition on its ring owners: the canonical
// elastic placement, which the master boots on and rebalances to. It is
// a pure function — the same (ids, workers, replicas) always yields
// the same placement, and placements for member sets differing by one
// worker differ in ≈ len(ids)·replicas/(len(workers)+1) partitions.
func RingPlacement(ids []layout.ID, workers []int, replicas int) placement.Replicated {
	if replicas < 1 {
		replicas = 1
	}
	r := NewRing(workers)
	out := make(placement.Replicated, len(ids))
	for _, id := range ids {
		out[id] = r.Owners(id, replicas)
	}
	return out
}

// StaticPlacement is the ring placement of a static fleet: every partition of
// l on workers 0…workers-1 with replicas copies each. pawmaster and the
// distributed example place through it.
func StaticPlacement(l *layout.Layout, workers, replicas int) placement.Replicated {
	ids := make([]layout.ID, len(l.Parts))
	for i, p := range l.Parts {
		ids[i] = p.ID
	}
	all := make([]int, workers)
	for i := range all {
		all[i] = i
	}
	return RingPlacement(ids, all, replicas)
}

// HostedIDs inverts a placement: the partitions worker w must host (any
// position in the replica set), sorted ascending.
func HostedIDs(rep placement.Replicated, w int) []layout.ID {
	var out []layout.ID
	for id, ws := range rep {
		for _, h := range ws {
			if h == w {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
