package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// forRange runs ForWith with a capturing closure as its context, for
// tests that only care about the chunks.
func forRange(n, grain int, body func(lo, hi int)) {
	ForWith(n, grain, body, func(b func(lo, hi int), lo, hi int) { b(lo, hi) })
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	check := func(nRaw uint16, grainRaw uint8) bool {
		n := int(nRaw % 5000)
		grain := int(grainRaw%200) + 1
		marks := make([]int32, n)
		forRange(n, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for _, m := range marks {
			if m != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	forRange(0, 1, func(lo, hi int) { called = true })
	forRange(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestForSumMatchesSerial(t *testing.T) {
	const n = 100000
	var sum int64
	forRange(n, 128, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&sum, local)
	})
	want := int64(n) * int64(n-1) / 2
	if sum != want {
		t.Fatalf("parallel sum %d != %d", sum, want)
	}
}

func TestForRespectsGrainFloor(t *testing.T) {
	// n=9, grain=4 used to split into 3 chunks of 3 — below the grain
	// floor — once the chunk count was capped at the worker count.
	for _, c := range []struct{ n, grain int }{{9, 4}, {100, 33}, {1000, 64}, {7, 7}} {
		var chunkLens []int
		var mu sync.Mutex
		forRange(c.n, c.grain, func(lo, hi int) {
			mu.Lock()
			chunkLens = append(chunkLens, hi-lo)
			mu.Unlock()
		})
		total := 0
		for _, l := range chunkLens {
			total += l
		}
		if total != c.n {
			t.Fatalf("n=%d grain=%d: chunks cover %d", c.n, c.grain, total)
		}
		below := 0
		for _, l := range chunkLens {
			if l < c.grain {
				below++
			}
		}
		if below > 1 {
			t.Fatalf("n=%d grain=%d: %d chunks below grain floor (lens %v)", c.n, c.grain, below, chunkLens)
		}
	}
}

func TestForWithCoversAllIndicesOnce(t *testing.T) {
	check := func(nRaw uint16, grainRaw uint8) bool {
		n := int(nRaw % 5000)
		grain := int(grainRaw%200) + 1
		marks := make([]int32, n)
		ForWith(n, grain, marks, func(marks []int32, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for _, m := range marks {
			if m != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForWithSerialPathZeroAllocs(t *testing.T) {
	type ctx struct {
		dst []float64
		s   float64
	}
	c := ctx{dst: make([]float64, 32), s: 2}
	allocs := testing.AllocsPerRun(100, func() {
		// 32 iterations at grain 64 → single chunk, runs inline.
		ForWith(len(c.dst), 64, c, func(c ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.dst[i] = c.s
			}
		})
	})
	if allocs != 0 {
		t.Fatalf("serial ForWith allocated %.1f per run, want 0", allocs)
	}
}
