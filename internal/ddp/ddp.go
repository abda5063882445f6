// Package ddp holds the vocabulary of distributed data parallelism the
// trainer (internal/dtrain) is written in: P rank goroutines each hold a
// model replica and a shard of the batch; after local backward passes,
// gradients are synchronized with an all-reduce so every replica takes
// the identical optimizer step (§II-C of the paper).
//
// The two synchronization strategies are the paper's §III-D comparison:
// PerMatrix runs one all-reduce per parameter matrix (the baseline,
// paying ring latency once per matrix); Coalesced stacks every gradient
// into one buffer and reduces once.
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
)

// String names the strategy for reports.
func (s SyncStrategy) String() string {
	switch s {
	case Coalesced:
		return "coalesced"
	default:
		return "per-matrix"
	}
}

// Bucket is one contiguous run of parameters synchronized together by
// one all-reduce: the half-open element bounds [Lo, Hi) of the bucket
// inside the flattened gradient vector (nn.FlattenGrads order).
type Bucket struct{ Lo, Hi int }

// Elements returns the bucket's flattened element count.
func (b Bucket) Elements() int { return b.Hi - b.Lo }

// BucketLayout returns the buckets strategy s reduces each step:
// PerMatrix gets one bucket per parameter, in parameter order, and
// Coalesced gets one bucket spanning the whole flattened gradient.
func BucketLayout(params []*autograd.Param, s SyncStrategy) []Bucket {
	var buckets []Bucket
	lo := 0
	for _, p := range params {
		buckets = append(buckets, Bucket{Lo: lo, Hi: lo + p.Grad.Size()})
		lo += p.Grad.Size()
	}
	if s == Coalesced {
		return []Bucket{{Lo: 0, Hi: lo}}
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
