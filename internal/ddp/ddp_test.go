package ddp

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

func TestShardRange(t *testing.T) {
	// All items covered exactly once, shards differ by ≤ 1.
	for _, tc := range []struct{ n, p int }{{10, 3}, {7, 7}, {5, 8}, {256, 4}, {0, 2}} {
		covered := 0
		var sizes []int
		for rank := 0; rank < tc.p; rank++ {
			lo, hi := ShardRange(tc.n, tc.p, rank)
			if lo > hi || lo < 0 || hi > tc.n {
				t.Fatalf("n=%d p=%d rank=%d invalid range [%d,%d)", tc.n, tc.p, rank, lo, hi)
			}
			covered += hi - lo
			sizes = append(sizes, hi-lo)
		}
		if covered != tc.n {
			t.Fatalf("n=%d p=%d covered %d", tc.n, tc.p, covered)
		}
		minSz, maxSz := sizes[0], sizes[0]
		for _, s := range sizes {
			minSz = min(minSz, s)
			if s > maxSz {
				maxSz = s
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("n=%d p=%d shard imbalance %d", tc.n, tc.p, maxSz-minSz)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if PerMatrix.String() != "per-matrix" || Coalesced.String() != "coalesced" {
		t.Fatal("strategy names wrong")
	}
}

func TestBucketLayout(t *testing.T) {
	m := nn.NewMLP(rng.New(3), "b", nn.MLPConfig{In: 8, Hidden: []int{16, 16}, Out: 4, Activation: nn.ReLU})
	params := m.Params()
	total := nn.GradElements(params)
	for _, bucketBytes := range []int{1, 64, 1024, 1 << 20} {
		buckets := BucketLayout(params, bucketBytes)
		// Buckets must tile [0, total) in reverse order and cover every
		// parameter exactly once.
		seen := make(map[int]bool)
		wantHi := total
		for _, b := range buckets {
			if b.Hi != wantHi {
				t.Fatalf("bucketBytes=%d: bucket hi %d, want %d", bucketBytes, b.Hi, wantHi)
			}
			if b.Lo >= b.Hi {
				t.Fatalf("bucketBytes=%d: empty bucket [%d,%d)", bucketBytes, b.Lo, b.Hi)
			}
			elems := 0
			for _, pi := range b.Params {
				if seen[pi] {
					t.Fatalf("param %d in two buckets", pi)
				}
				seen[pi] = true
				elems += params[pi].Grad.Size()
			}
			if elems != b.Elements() {
				t.Fatalf("bucket [%d,%d) declares %d elements, params sum to %d", b.Lo, b.Hi, b.Elements(), elems)
			}
			// A bucket may exceed the cap only when it holds a single
			// oversized parameter.
			if elems*8 > bucketBytes && len(b.Params) > 1 {
				t.Fatalf("bucketBytes=%d: multi-param bucket of %d bytes", bucketBytes, elems*8)
			}
			wantHi = b.Lo
		}
		if wantHi != 0 {
			t.Fatalf("bucketBytes=%d: buckets do not reach element 0 (stop at %d)", bucketBytes, wantHi)
		}
		if len(seen) != len(params) {
			t.Fatalf("bucketBytes=%d: %d of %d params bucketed", bucketBytes, len(seen), len(params))
		}
	}
	// Bucket 0 must hold the LAST parameters (first gradients ready).
	buckets := BucketLayout(params, 64)
	last := buckets[0].Params[len(buckets[0].Params)-1]
	if last != len(params)-1 {
		t.Fatalf("bucket 0 must end at the final param, got %d", last)
	}
}
