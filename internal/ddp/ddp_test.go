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
	m := nn.NewMLP(rng.New(3), "b", nn.MLPConfig{In: 8, Hidden: []int{16, 16}, Out: 4})
	params := m.Params()
	total := nn.GradElements(params)
	// Per-matrix: one bucket per parameter, tiling [0, total) in order.
	buckets := BucketLayout(params, PerMatrix)
	if len(buckets) != len(params) {
		t.Fatalf("per-matrix: %d buckets for %d params", len(buckets), len(params))
	}
	lo := 0
	for i, b := range buckets {
		if b.Lo != lo || b.Elements() != params[i].Grad.Size() {
			t.Fatalf("per-matrix bucket %d is [%d,%d), want [%d,%d)", i, b.Lo, b.Hi, lo, lo+params[i].Grad.Size())
		}
		lo = b.Hi
	}
	if lo != total {
		t.Fatalf("per-matrix buckets end at %d, want %d", lo, total)
	}
	// Coalesced: one bucket over the whole flattened gradient.
	if got := BucketLayout(params, Coalesced); len(got) != 1 || got[0] != (Bucket{Lo: 0, Hi: total}) {
		t.Fatalf("coalesced layout %v, want one bucket [0,%d)", got, total)
	}
}
