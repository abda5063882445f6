// Package parallel provides the shared-memory parallel-for used by the
// dense and sparse kernels. It deliberately stays tiny: one loop with
// grain control and a worker cap, built only on goroutines and atomics.
package parallel

import (
	"runtime"
	"sync/atomic"
	"time"
)

// MaxWorkers returns the degree of parallelism kernels should use.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// ForWith splits [0, n) into contiguous chunks of at least grain
// iterations and runs body(ctx, lo, hi) on each chunk, possibly
// concurrently; a single chunk runs inline. body must be safe to call
// concurrently on disjoint ranges. Pass a capture-free func literal
// reading everything it needs from ctx: such literals compile to static
// functions, so the single-chunk (serial) path performs no heap
// allocation at all — a capturing closure always escapes because of the
// goroutine fan-out path, costing one allocation per call even for tiny
// inputs. The hot kernels (GEMM, SpGEMM, SpMM, gathers) use this to
// honour their zero-allocation warm-path contract.
func ForWith[T any](n, grain int, ctx T, body func(ctx T, lo, hi int)) {
	ForWithN(MaxWorkers(), n, grain, ctx, body)
}

// ForWithN is ForWith with an explicit worker cap: at most workers
// chunks run concurrently (workers ≤ 0 means MaxWorkers()). This is the
// hook the kernels.Context budget plugs into — an outer layer that is
// itself parallel (engine workers, trainer ranks) passes each unit a
// reduced cap so inner × outer parallelism never oversubscribes the
// host. The chunking is static and depends only on (workers, n, grain),
// never on runtime load, and chunks are contiguous disjoint ranges —
// kernels whose per-index work is independent therefore produce bitwise
// identical results at every worker count.
func ForWithN[T any](workers, n, grain int, ctx T, body func(ctx T, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if workers <= 0 {
		workers = MaxWorkers()
	}
	chunks := (n + grain - 1) / grain
	if chunks > workers {
		chunks = workers
	}
	if chunks <= 1 {
		body(ctx, 0, n)
		return
	}
	chunkSize := (n + chunks - 1) / chunks
	if chunkSize < grain {
		chunkSize = grain
	}
	fanOut(n, chunkSize, ctx, body)
}

// fanOut runs body on each chunkSize-wide chunk of [0, n) and waits: the
// calling goroutine and up to chunks-1 helpers claim chunks from one
// counter, so the caller never waits for a helper to be scheduled
// before work starts, and runs every chunk itself when none arrives.
// Which goroutine runs a chunk never changes the chunk. It is split from
// ForWithN so that a ctx too large for the job closure to hold by value
// moves to the heap here, on the parallel path only, and the serial path
// stays allocation-free whatever ctx's size.
func fanOut[T any](n, chunkSize int, ctx T, body func(ctx T, lo, hi int)) {
	j := &job{chunks: int64((n + chunkSize - 1) / chunkSize)}
	j.run = func(c int) {
		lo := c * chunkSize
		body(ctx, lo, min(lo+chunkSize, n))
	}
	for h := int64(1); h < j.chunks; h++ {
		if takeIdle() {
			jobs <- j
		} else {
			go helper(j)
		}
	}
	j.work()
	for j.done.Load() < j.chunks { // chunks a helper claimed, still running
		runtime.Gosched()
	}
}

// job is one fanOut call: chunks are claimed in order from next and
// counted into done when finished.
type job struct {
	next, done atomic.Int64
	chunks     int64
	run        func(c int)
}

// work runs unclaimed chunks of j until none is left.
func (j *job) work() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		j.run(int(c))
		j.done.Add(1)
	}
}

// helperSpin is how long a helper that has finished its job polls for
// the next one before it exits. A GNN forward issues a parallel loop
// every 10-50 µs; a helper that parked between them would leave its
// CPU idle, and on a virtual machine waking an idle vCPU costs tens of
// microseconds that vary with the host's load. Spinning across those
// gaps keeps the second core's speed steady; exiting after the spin
// leaves no goroutine behind once the loops stop.
const helperSpin = 100 * time.Microsecond

var (
	// idle counts helpers spinning for a job that no fanOut has claimed.
	idle atomic.Int64
	// jobs carries a job to the idle helper whose claim fanOut took.
	// Every send has a claimed helper receiving, so a send never waits
	// for long; the buffer lets fanOut post a loop's offers and start
	// its own chunks without a handoff per helper. Past 64 pending
	// offers a send waits for one of the helpers it was counted for.
	jobs = make(chan *job, 64)
)

// takeIdle claims one idle helper, reporting whether there was one. A
// claim is paid for with exactly one send on jobs, which some idle
// helper receives: a helper leaves the idle state only by receiving a
// job or by taking a claim itself.
func takeIdle() bool {
	for {
		n := idle.Load()
		if n <= 0 {
			return false
		}
		if idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// helper works on j, then on every job handed to it within helperSpin
// of finishing the last, and exits when none comes.
func helper(j *job) {
	for {
		j.work()
		idle.Add(1)
		deadline := time.Now().Add(helperSpin)
		for j = nil; j == nil; {
			select {
			case j = <-jobs:
			default:
				if time.Now().Before(deadline) {
					runtime.Gosched()
				} else if takeIdle() {
					return
				} else {
					j = <-jobs // a claim is in flight: its job comes
				}
			}
		}
	}
}
