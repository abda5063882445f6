package knnsearch

import (
	"math"
	"slices"
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// bruteRadiusGraph is the O(n²·d) oracle for BuildRadiusGraphCtx: each
// row's brute-force neighbors, ascending, cut to the maxDegree smallest,
// emitted as i<j edges in ascending i.
func bruteRadiusGraph[T fp.Float](pts *tensor.Matrix[T], radius float64, maxDegree int) (src, dst []int) {
	for i := 0; i < pts.Rows(); i++ {
		nbrs := bruteRadiusNeighbors(pts, pts.Row(i), radius, i)
		if maxDegree > 0 && len(nbrs) > maxDegree {
			nbrs = nbrs[:maxDegree]
		}
		for _, j := range nbrs {
			if i < j {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	return src, dst
}

// TestBuildRadiusGraphNonFiniteRowsMatchBrute is the differential test
// for rows with a NaN or infinite coordinate. Such a row is never within
// a finite radius, but a tree that indexes it can split on its NaN and
// then never search that split's far side, losing finite pairs. 60 rows
// in 3-D, about 45% of them given one NaN or ±Inf coordinate, must give
// brute force's edge list exactly, at one and two workers, with and
// without a degree cap, in float64 and float32.
func TestBuildRadiusGraphNonFiniteRowsMatchBrute(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for seed := uint64(0); seed < 200; seed++ {
		r := rng.New(seed)
		pts := tensor.RandN(r, 60, 3, 1)
		for i := 0; i < pts.Rows(); i++ {
			if r.Float64() < 0.45 {
				pts.Set(i, r.Intn(3), bad[r.Intn(len(bad))])
			}
		}
		checkAgainstBrute(t, seed, pts, 0.8)
		checkAgainstBrute(t, seed, tensor.ConvertFrom[float32](nil, pts), 0.8)
	}
}

func checkAgainstBrute[T fp.Float](t *testing.T, seed uint64, pts *tensor.Matrix[T], radius float64) {
	t.Helper()
	for _, maxDegree := range []int{0, 3} {
		wantSrc, wantDst := bruteRadiusGraph(pts, radius, maxDegree)
		for _, workers := range []int{1, 2} {
			src, dst := BuildRadiusGraphCtx(kernels.Context{Workers: workers}, pts, radius, maxDegree)
			if !slices.Equal(src, wantSrc) || !slices.Equal(dst, wantDst) {
				t.Fatalf("seed %d %T maxDegree=%d workers=%d: %d edges, brute force %d",
					seed, *new(T), maxDegree, workers, len(src), len(wantSrc))
			}
		}
	}
}
