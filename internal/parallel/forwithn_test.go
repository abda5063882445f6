package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForWithNCoversRangeOnce checks the static partition at awkward
// worker/grain/n combinations: every index visited exactly once, chunk
// count never exceeds the worker cap.
func TestForWithNCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 6, 7, 63, 64, 65, 1000} {
			for _, grain := range []int{1, 16, 100} {
				visits := make([]atomic.Int32, n)
				var chunks atomic.Int32
				ForWithN(workers, n, grain, visits, func(v []atomic.Int32, lo, hi int) {
					chunks.Add(1)
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("workers=%d n=%d grain=%d: bad chunk [%d,%d)", workers, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						v[i].Add(1)
					}
				})
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, got)
					}
				}
				if int(chunks.Load()) > workers {
					t.Fatalf("workers=%d n=%d grain=%d: %d chunks exceed cap", workers, n, grain, chunks.Load())
				}
			}
		}
	}
}

// TestForWithNNestedConcurrentCallers runs loops whose bodies fan out
// again, from several callers at once, so that helpers are handed jobs
// while others are still running: every index is still visited once.
func TestForWithNNestedConcurrentCallers(t *testing.T) {
	const callers, outer, inner = 4, 12, 300
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visits := make([]atomic.Int32, outer*inner)
			for rep := 0; rep < 20; rep++ {
				ForWithN(3, outer, 1, visits, func(v []atomic.Int32, lo, hi int) {
					for i := lo; i < hi; i++ {
						ForWithN(2, inner, 16, v[i*inner:(i+1)*inner], func(row []atomic.Int32, lo, hi int) {
							for j := lo; j < hi; j++ {
								row[j].Add(1)
							}
						})
					}
				})
			}
			for i := range visits {
				if got := visits[i].Load(); got != 20 {
					t.Errorf("index %d visited %d times over 20 loops", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFanOutLeavesNoGoroutines checks that the helpers a parallel loop
// starts exit once the loops stop coming.
func TestFanOutLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var sum atomic.Int64
	for rep := 0; rep < 200; rep++ {
		ForWithN(4, 1000, 1, &sum, func(s *atomic.Int64, lo, hi int) { s.Add(int64(hi - lo)) })
	}
	if sum.Load() != 200*1000 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 200*1000)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines before the loops, %d after", before, g)
	}
}

// TestForWithNZeroWorkersFallsBack ensures a non-positive cap behaves
// like the default ForWith.
func TestForWithNZeroWorkersFallsBack(t *testing.T) {
	var sum atomic.Int64
	ForWithN(0, 100, 1, &sum, func(s *atomic.Int64, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.Add(int64(i))
		}
	})
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}
