// Package parallel provides shared-memory loop parallelism helpers used by
// the dense and sparse kernels. It deliberately stays tiny: a parallel-for
// with grain control and a fan-out/fan-in helper, built only on goroutines
// and sync.
package parallel

import (
	"runtime"
	"sync"
)

// MaxWorkers returns the degree of parallelism kernels should use.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// For splits [0, n) into contiguous chunks of at least grain iterations and
// runs body(lo, hi) on each chunk, possibly concurrently. If the work is
// small (a single chunk) it runs inline to avoid goroutine overhead.
// body must be safe to call concurrently on disjoint ranges.
func For(n, grain int, body func(lo, hi int)) {
	ForWith(n, grain, body, func(b func(lo, hi int), lo, hi int) { b(lo, hi) })
}

// ForWith is For with an explicit context value instead of closure
// captures. Pass a capture-free func literal reading everything it needs
// from ctx: such literals compile to static functions, so the
// single-chunk (serial) path performs no heap allocation at all — a
// closure passed to For always escapes because of the goroutine fan-out
// path, costing one allocation per call even for tiny inputs. The hot
// kernels (GEMM, SpGEMM, SpMM, gathers) use this to honour their
// zero-allocation warm-path contract. For is a thin wrapper over this
// (with the caller's closure as the context), so the chunking policy —
// worker cap, grain floor — lives in exactly one place.
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

// fanOut runs body on each chunkSize-wide chunk of [0, n) in its own
// goroutine and waits. It is split from ForWithN so that a ctx too
// large for the goroutine closures to hold by value moves to the heap
// here, on the parallel path only, and the serial path stays
// allocation-free whatever ctx's size.
func fanOut[T any](n, chunkSize int, ctx T, body func(ctx T, lo, hi int)) {
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(ctx, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Do runs each task concurrently and waits for all of them.
func Do(tasks ...func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, t := range tasks {
		go func(t func()) {
			defer wg.Done()
			t()
		}(t)
	}
	wg.Wait()
}
