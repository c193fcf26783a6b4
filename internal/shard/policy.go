package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Policy decides the primary shard for a job name. Implementations must
// be safe for concurrent use and deterministic: the same name must route
// to the same shard for the lifetime of the scheduler, because deletes
// start their lookup where the insert was first routed.
type Policy interface {
	// Route returns the primary shard index in [0, shards) for name.
	Route(name string, shards int) int
}

// Ring is a consistent-hash ring: each shard owns `replicas` virtual
// points on a 64-bit circle, and a name routes to the shard owning the
// first point at or after the name's hash. Adding or removing a shard
// only remaps the names falling between the moved points, which keeps
// most of the job population pinned when the shard count changes between
// runs.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultReplicas is the virtual-node count per shard used by NewRing
// when replicas <= 0. 64 points per shard keeps the expected spread
// within a few percent of even.
const DefaultReplicas = 64

// NewRing builds a consistent-hash ring over the given shard count.
func NewRing(shards, replicas int) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("shard: ring over %d shards", shards))
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			h := hash64(fmt.Sprintf("shard-%d-vnode-%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, k int) bool { return r.points[i].hash < r.points[k].hash })
	return r
}

// Route implements Policy. The shards argument must match the count the
// ring was built for.
func (r *Ring) Route(name string, shards int) int {
	if shards != r.shards {
		panic(fmt.Sprintf("shard: ring built for %d shards routed over %d", r.shards, shards))
	}
	h := hash64(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is the murmur3 finalizer. Raw FNV-1a of sequential names
// ("job-00017", "job-00018", ...) differs mostly in low bits, and ring
// placement is governed by the high bits, so without a final avalanche
// step consecutive names clump onto a few arcs.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
