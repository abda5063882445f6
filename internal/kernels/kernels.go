// Package kernels defines the intra-op parallelism budget threaded
// through the hot kernels (GEMM, SpGEMM, SpMM, gathers, fused ops).
//
// Every parallel kernel in internal/tensor and internal/sparse is
// row-partitioned with static chunking and no cross-chunk floating-point
// accumulation, so its output is bitwise identical at every worker
// count; the Context only decides how many goroutines share the loop.
// That makes the budget a pure performance knob that composes with the
// inter-op parallelism above it (engine workers, trainer ranks): each
// outer unit of concurrency runs its kernels under a Context sized so
// that outer × inner never oversubscribes GOMAXPROCS.
//
// The package is a leaf (stdlib only) so tensor, sparse, autograd, and
// the stage packages can all depend on it.
package kernels

import (
	"context"
	"runtime"
)

// Context carries the intra-op worker budget for one unit of work (one
// engine worker, one trainer rank, one serial caller). The zero value
// means "no explicit budget": kernels use GOMAXPROCS, the historical
// default.
type Context struct {
	// Workers is the maximum goroutines one kernel invocation may fan
	// out to. 0 (or negative) means GOMAXPROCS.
	Workers int
}

// Cap resolves the budget to a concrete worker count: Workers when
// positive, GOMAXPROCS otherwise.
func (c Context) Cap() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Budget returns the per-unit Context for `units` concurrent outer units
// (trainer ranks, engine workers) when the caller requested `requested`
// kernel workers per unit (0 = auto). The invariant is the worker-budget
// rule documented in PERF.md: units × per-unit workers ≤ GOMAXPROCS,
// with a floor of one worker so kernels always make progress. An
// explicit request is honoured only up to that cap, so callers cannot
// oversubscribe the host by combining options.
func Budget(units, requested int) Context {
	if units < 1 {
		units = 1
	}
	share := runtime.GOMAXPROCS(0) / units
	if share < 1 {
		share = 1
	}
	w := requested
	if w <= 0 || w > share {
		w = share
	}
	return Context{Workers: w}
}

// ctxKey keys the Context inside a context.Context.
type ctxKey struct{}

// Into returns a context.Context carrying kc. The recon stage interfaces
// pass context.Context (not kernels.Context) through their public
// signatures; this is how the engine hands each worker its per-worker
// budget without changing those signatures.
func Into(ctx context.Context, kc Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, kc)
}

// From extracts the Context installed by Into, or the zero Context
// (= GOMAXPROCS) when none is present.
func From(ctx context.Context) Context {
	if kc, ok := ctx.Value(ctxKey{}).(Context); ok {
		return kc
	}
	return Context{}
}
