// Package workspace provides reusable host-memory scratch buffers for the
// hot kernels of the pipeline: size-bucketed, goroutine-safe pools of
// []float64, []int, and []bool slices, plus an Arena that checkpoints and
// releases groups of allocations together (one arena per trainer rank,
// reset between optimizer steps).
//
// The pools exist because every stage of the paper's pipeline — SpGEMM
// neighborhood expansion, SpMM aggregation, dense GEMM in the MLPs, and
// the autograd tape built for every training step — otherwise allocates
// fresh output buffers per call, and at bulk-sampling scale the garbage
// collector becomes a serial bottleneck. Steady-state training with warm
// pools performs no heap allocation in these kernels (asserted by
// testing.AllocsPerRun tests in the kernel packages).
//
// The free lists are mutex-guarded stacks rather than sync.Pool: storing a
// slice in a sync.Pool boxes the slice header (one heap allocation per
// Put), which would defeat the zero-allocation contract the kernels are
// tested against. Retention per bucket is byte-capped so warm pools hold a
// bounded working set instead of the high-water mark forever.
package workspace

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fp"
)

// minBucketLen is the smallest pooled slice length; requests below it are
// rounded up so tiny buffers still recycle.
const minBucketLen = 64

// maxBucketShift caps the largest pooled bucket at 1<<maxBucketShift
// elements (64 Mi elements = 512 MiB of float64); larger requests fall
// through to the allocator and are dropped on Put.
const maxBucketShift = 26

// numBuckets is the bucket count: lengths 2^6 .. 2^26.
const numBuckets = maxBucketShift - 5

// maxRetainedBytesPerBucket bounds how much memory one bucket keeps
// parked; slices returned beyond the cap are released to the GC.
const maxRetainedBytesPerBucket = 128 << 20

// maxRetainedSlicesPerBucket bounds the stack depth of the small buckets.
const maxRetainedSlicesPerBucket = 1024

// bucketFor returns the bucket index for a request of n elements and the
// capacity slices in that bucket have, or (-1, n) if n is unpooled.
func bucketFor(n int) (idx, size int) {
	if n <= minBucketLen {
		return 0, minBucketLen
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2(n))
	if shift > maxBucketShift {
		return -1, n
	}
	return shift - 6, 1 << shift
}

// stats counters (monotonic; read via ReadStats).
var (
	statGets   atomic.Int64
	statPuts   atomic.Int64
	statMisses atomic.Int64 // Gets that had to allocate
	inUseBytes atomic.Int64 // bytes handed out and not yet returned
)

// Stats is a snapshot of pool activity, used by the gpumem workspace
// accounting and by cmd/bench reports.
type Stats struct {
	Gets       int64 // total pooled Get calls (all element types)
	Puts       int64 // total Put calls
	Misses     int64 // Gets that allocated because the bucket was empty
	InUseBytes int64 // bytes currently checked out of the pools
}

// ReadStats returns a snapshot of the global pool counters.
func ReadStats() Stats {
	return Stats{
		Gets:       statGets.Load(),
		Puts:       statPuts.Load(),
		Misses:     statMisses.Load(),
		InUseBytes: inUseBytes.Load(),
	}
}

// InUseBytes returns the bytes currently checked out across all pools.
func InUseBytes() int64 { return inUseBytes.Load() }

// typedPools is a bucketed free-list set for one element type.
type typedPools[T any] struct {
	mu        sync.Mutex
	buckets   [numBuckets][][]T
	elemBytes int64
}

// get returns a zeroed slice of length n.
func (p *typedPools[T]) get(n int) []T {
	if n < 0 {
		panic("workspace: negative length")
	}
	statGets.Add(1)
	idx, size := bucketFor(n)
	if idx < 0 {
		// Over the pooling cap: plain allocation, untracked.
		statMisses.Add(1)
		return make([]T, n)
	}
	inUseBytes.Add(int64(size) * p.elemBytes)
	p.mu.Lock()
	stack := p.buckets[idx]
	if len(stack) > 0 {
		s := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		p.buckets[idx] = stack[:len(stack)-1]
		p.mu.Unlock()
		s = s[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
		return s
	}
	p.mu.Unlock()
	statMisses.Add(1)
	return make([]T, n, size)
}

// put returns a slice to its bucket. Slices whose capacity is not an
// exact bucket size (allocated outside the pools, or over the cap) are
// dropped and leave the accounting untouched — only pooled buckets are
// tracked, so InUseBytes stays exact. Slices beyond the bucket's
// retention budget are also dropped (but were tracked, so decremented).
func (p *typedPools[T]) put(s []T) {
	if s == nil {
		return
	}
	statPuts.Add(1)
	c := cap(s)
	idx, size := bucketFor(c)
	if idx < 0 || size != c {
		return
	}
	inUseBytes.Add(-int64(size) * p.elemBytes)
	sliceBytes := int64(size) * p.elemBytes
	maxSlices := int64(maxRetainedSlicesPerBucket)
	if byBytes := maxRetainedBytesPerBucket / sliceBytes; byBytes < maxSlices {
		maxSlices = byBytes
	}
	p.mu.Lock()
	if int64(len(p.buckets[idx])) < maxSlices {
		p.buckets[idx] = append(p.buckets[idx], s[:0:c])
	}
	p.mu.Unlock()
}

var (
	f64Pools  = &typedPools[float64]{elemBytes: 8}
	f32Pools  = &typedPools[float32]{elemBytes: 4}
	intPools  = &typedPools[int]{elemBytes: 8}
	boolPools = &typedPools[bool]{elemBytes: 1}
	i8Pools   = &typedPools[int8]{elemBytes: 1}
	i32Pools  = &typedPools[int32]{elemBytes: 4}
)

// floatPool returns the shared bucketed pool set for the float element
// type T. The type switch is the single precision-dispatch point of the
// package: every float-typed Get/Put/Grow entry — f32 and f64 alike —
// resolves through it, so the size-bucket logic exists exactly once in
// typedPools regardless of how many dtypes the pools serve.
func floatPool[T fp.Float]() *typedPools[T] {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(f32Pools).(*typedPools[T])
	}
	return any(f64Pools).(*typedPools[T])
}

// GetFloat returns a zeroed []T of length n from the pools — the
// precision-generic entry the generic kernels allocate through.
func GetFloat[T fp.Float](n int) []T { return floatPool[T]().get(n) }

// PutFloat returns a slice obtained from GetFloat to the pools. The
// caller must not retain any reference to it afterwards.
func PutFloat[T fp.Float](s []T) { floatPool[T]().put(s) }

// GetF64 returns a zeroed []float64 of length n from the pools.
func GetF64(n int) []float64 { return f64Pools.get(n) }

// PutF64 returns a slice obtained from GetF64 to the pools. The caller
// must not retain any reference to it afterwards.
func PutF64(s []float64) { f64Pools.put(s) }

// GetF32 returns a zeroed []float32 of length n from the pools.
func GetF32(n int) []float32 { return f32Pools.get(n) }

// PutF32 returns a slice obtained from GetF32 to the pools.
func PutF32(s []float32) { f32Pools.put(s) }

// GetInt returns a zeroed []int of length n from the pools.
func GetInt(n int) []int { return intPools.get(n) }

// PutInt returns a slice obtained from GetInt to the pools.
func PutInt(s []int) { intPools.put(s) }

// GetBool returns a zeroed []bool of length n from the pools.
func GetBool(n int) []bool { return boolPools.get(n) }

// PutBool returns a slice obtained from GetBool to the pools.
func PutBool(s []bool) { boolPools.put(s) }

// GetI8 returns a zeroed []int8 of length n from the pools — the
// storage of the quantized inference path's activation matrices.
func GetI8(n int) []int8 { return i8Pools.get(n) }

// PutI8 returns a slice obtained from GetI8 to the pools.
func PutI8(s []int8) { i8Pools.put(s) }

// GetI32 returns a zeroed []int32 of length n from the pools — the
// int8 kernels' accumulator scratch rows.
func GetI32(n int) []int32 { return i32Pools.get(n) }

// PutI32 returns a slice obtained from GetI32 to the pools.
func PutI32(s []int32) { i32Pools.put(s) }

// grow returns a slice of length n reusing s's storage when cap(s)
// suffices; otherwise s goes back to its bucket and a fresh pooled
// slice is drawn. A nil s allocates plain heap storage instead: growth
// paths reached through value-returning wrappers (whose results escape
// to callers that never Release) must not drain the pools — only
// storage a caller actually recycles graduates to pooled backing on its
// first regrow. Contents are unspecified either way — this is scratch
// growth for buffers the caller fully overwrites, not append. One
// implementation serves every element type; the exported Grow* entries
// below only bind the pool.
func grow[T any](p *typedPools[T], s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if cap(s) >= n {
		return s[:n]
	}
	p.put(s)
	return p.get(n)
}

// GrowFloat is the precision-generic grow for float slices.
func GrowFloat[T fp.Float](s []T, n int) []T { return grow(floatPool[T](), s, n) }

// GrowF64 grows a []float64 through the pools (see grow).
func GrowF64(s []float64, n int) []float64 { return grow(f64Pools, s, n) }

// GrowInt grows a []int through the pools (see grow).
func GrowInt(s []int, n int) []int { return grow(intPools, s, n) }

// GrowBool grows a []bool through the pools (see grow).
func GrowBool(s []bool, n int) []bool { return grow(boolPools, s, n) }
