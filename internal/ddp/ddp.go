// Package ddp holds the vocabulary of distributed data parallelism the
// trainer (internal/dtrain) is written in: P rank goroutines each hold a
// model replica and a shard of the batch; after local backward passes,
// gradients are synchronized with an all-reduce so every replica takes
// the identical optimizer step (§II-C of the paper).
//
// The synchronization strategies match the paper's §III-D comparison:
// PerMatrix runs one all-reduce per parameter matrix (the baseline,
// paying ring latency once per matrix); Coalesced stacks every gradient
// into one buffer and reduces once; Bucketed is the PyTorch-DDP
// refinement in between.
package ddp

import (
	"sync"

	"repro/internal/autograd"
)

// SyncStrategy selects how gradients cross the wire.
type SyncStrategy int

const (
	// PerMatrix all-reduces each parameter gradient separately.
	PerMatrix SyncStrategy = iota
	// Coalesced flattens all gradients into one buffer and all-reduces
	// once — the paper's optimization.
	Coalesced
	// Bucketed groups gradients into fixed-size buckets in reverse
	// parameter order (the order backward completes them) and reduces one
	// bucket at a time — the PyTorch-DDP refinement of coalescing that
	// lets communication start before the full backward pass finishes.
	Bucketed
)

// String names the strategy for reports.
func (s SyncStrategy) String() string {
	switch s {
	case Coalesced:
		return "coalesced"
	case Bucketed:
		return "bucketed"
	default:
		return "per-matrix"
	}
}

// DefaultBucketBytes is the bucket cap used when none is configured —
// PyTorch DDP's 25 MiB default scaled to this simulation's model sizes.
const DefaultBucketBytes = 256 << 10

// Bucket is one contiguous run of parameters synchronized together. Lo
// and Hi are the half-open element bounds of the bucket inside the
// flattened gradient vector (nn.FlattenGrads order).
type Bucket struct {
	Params []int // indices into the parameter list, ascending
	Lo, Hi int   // flat element bounds [Lo, Hi)
}

// Elements returns the bucket's flattened element count.
func (b Bucket) Elements() int { return b.Hi - b.Lo }

// BucketLayout partitions parameters into buckets of at most bucketBytes
// (8 bytes per element; a single oversized parameter gets its own
// bucket). Buckets are ordered by backward completion: the LAST
// parameters in the list (the classifier head, used latest in the
// forward pass) finish their gradients first, so the final parameters
// form bucket 0. Within a bucket, parameter indices stay ascending so
// flattened bounds are contiguous.
func BucketLayout(params []*autograd.Param, bucketBytes int) []Bucket {
	if bucketBytes <= 0 {
		bucketBytes = DefaultBucketBytes
	}
	offsets := make([]int, len(params)+1)
	for i, p := range params {
		offsets[i+1] = offsets[i] + p.Grad.Size()
	}
	var buckets []Bucket
	hi := len(params)
	for hi > 0 {
		lo := hi
		bytes := 0
		for lo > 0 {
			pb := params[lo-1].Grad.Size() * 8
			if bytes > 0 && bytes+pb > bucketBytes {
				break
			}
			bytes += pb
			lo--
		}
		b := Bucket{Lo: offsets[lo], Hi: offsets[hi]}
		for i := lo; i < hi; i++ {
			b.Params = append(b.Params, i)
		}
		buckets = append(buckets, b)
		hi = lo
	}
	return buckets
}

// RunRanks executes body concurrently for ranks 0..p-1 and waits for all
// of them — the harness every DDP experiment uses.
func RunRanks(p int, body func(rank int)) {
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			body(r)
		}(r)
	}
	wg.Wait()
}

// ShardRange splits n items across p ranks, returning rank's [lo, hi).
// Remainder items go to the lowest ranks, so shards differ by at most 1.
func ShardRange(n, p, rank int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = rank*base + min(rank, rem)
	size := base
	if rank < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
