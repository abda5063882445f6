package autograd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// The fused tape ops must be bitwise interchangeable with the unfused
// chains they replace — same loss, same parameter gradients — at every
// intra-op worker count (1, 2, 4, and an odd 7 to catch partition edge
// cases).

var fusedWorkers = []int{1, 2, 4, 7}

// fusedFixture builds a miniature GNN-shaped problem: a biased ReLU
// layer over [E ‖ X[src] ‖ X[dst]] and a plain biased layer after it,
// messages aggregated back to the vertices (the same value feeding both
// aggregations, which exercises the fused gradient-accumulate backward),
// and a loss. X and E are parameters, so gradients flow through the
// direct and the gathered segments.
func fusedFixture() (ps fusedParams, src, dst []int, labels []float64) {
	r := rng.New(77)
	ps.x = NewParam("x", tensor.RandN(r, 13, 5, 1))
	ps.e = NewParam("e", tensor.RandN(r, 31, 4, 1))
	src = make([]int, 31)
	dst = make([]int, 31)
	for i := range src {
		src[i] = r.Intn(13)
		dst[i] = r.Intn(13)
	}
	ps.w = NewParam("w", tensor.RandN(r, 4+5+5, 6, 0.5))
	ps.b = NewParam("b", tensor.RandN(r, 1, 6, 0.5))
	ps.w2 = NewParam("w2", tensor.RandN(r, 6, 3, 0.5))
	ps.b2 = NewParam("b2", tensor.RandN(r, 1, 3, 0.5))
	labels = make([]float64, 13)
	for i := range labels {
		if r.Float64() > 0.5 {
			labels[i] = 1
		}
	}
	return
}

type fusedParams struct{ x, e, w, b, w2, b2 *Param }

func (ps fusedParams) all() []*Param { return []*Param{ps.x, ps.e, ps.w, ps.b, ps.w2, ps.b2} }

func (ps fusedParams) clone() fusedParams {
	c := func(p *Param) *Param { return NewParam(p.Name, p.Value.Clone()) }
	return fusedParams{c(ps.x), c(ps.e), c(ps.w), c(ps.b), c(ps.w2), c(ps.b2)}
}

func runFused(t *Tape, ps fusedParams, src, dst []int, labels []float64) float64 {
	xn, en := t.Use(ps.x), t.Use(ps.e)
	h := t.Linear(t.Use(ps.w), t.Use(ps.b), true, Seg{N: en}, Seg{N: xn, Idx: src}, Seg{N: xn, Idx: dst})
	o := t.Linear(t.Use(ps.w2), t.Use(ps.b2), false, Seg{N: h})
	nv := ps.x.Value.Rows()
	msrc := t.AggregateRows(o, src, nv)
	mdst := t.AggregateRows(o, dst, nv)
	score := t.RowSums(t.Add(msrc, mdst))
	loss := t.BCEWithLogits(score, labels, 1.25)
	t.Backward(loss)
	return loss.Value.At(0, 0)
}

// runUnfused is runFused over materialised gathers and concatenation
// and separate MatMul, AddBias and ReLU nodes. The dst gather is
// recorded first so that backward reaches X through src first, as
// Linear's segment order has it.
func runUnfused(t *Tape, ps fusedParams, src, dst []int, labels []float64) float64 {
	xn, en := t.Use(ps.x), t.Use(ps.e)
	gdst := t.GatherRows(xn, dst)
	in := t.ConcatCols(en, t.GatherRows(xn, src), gdst)
	h := t.ReLU(t.AddBias(t.MatMul(in, t.Use(ps.w)), t.Use(ps.b)))
	o := t.AddBias(t.MatMul(h, t.Use(ps.w2)), t.Use(ps.b2))
	nv := ps.x.Value.Rows()
	msrc := t.scatterAddRows(o, src, nv)
	mdst := t.scatterAddRows(o, dst, nv)
	score := t.RowSums(t.Add(msrc, mdst))
	loss := t.BCEWithLogits(score, labels, 1.25)
	t.Backward(loss)
	return loss.Value.At(0, 0)
}

func TestFusedOpsMatchUnfusedBitwise(t *testing.T) {
	ref, src, dst, labels := fusedFixture()
	lossRef := runUnfused(NewTapeArena(nil), ref, src, dst, labels)

	for _, workers := range fusedWorkers {
		ps := ref.clone()
		arena := workspace.NewArena()
		tape := NewTapeArena(arena)
		tape.SetKernels(kernels.Context{Workers: workers})
		loss := runFused(tape, ps, src, dst, labels)
		if math.Float64bits(loss) != math.Float64bits(lossRef) {
			t.Fatalf("workers=%d: fused loss %v != unfused %v", workers, loss, lossRef)
		}
		for i, p := range ps.all() {
			gradBitsEqual(t, fmt.Sprintf("workers=%d", workers), p, ref.all()[i])
		}
		arena.Reset()
	}
}

// gradBitsEqual fails unless got's gradient is Float64bits-equal to want's.
func gradBitsEqual(t *testing.T, name string, got, want *Param) {
	t.Helper()
	g, w := got.Grad.Data(), want.Grad.Data()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: %s gradient element %d is %v, unfused %v", name, got.Name, i, g[i], w[i])
		}
	}
}

// TestAggregateRowsMatchesScatterAddRows isolates the AGG swap: forward
// values and input gradients must be bitwise equal to the serial
// scatter at every worker count, including when the input already holds
// a gradient (the fused SpMMAdd accumulate path).
func TestAggregateRowsMatchesScatterAddRows(t *testing.T) {
	r := rng.New(78)
	x := tensor.RandN(r, 41, 7, 1)
	idx := make([]int, 41)
	for i := range idx {
		idx[i] = r.Intn(11)
	}
	labels := make([]float64, 11)
	for i := range labels {
		if r.Float64() > 0.4 {
			labels[i] = 1
		}
	}

	wRef := NewParam("w", tensor.RandN(r, 7, 7, 0.5))
	tRef := NewTapeArena(nil)
	hRef := tRef.MatMul(tRef.Constant(x), tRef.Use(wRef))
	// h feeds two aggregations so backward accumulates into h twice.
	aggRef := tRef.Add(tRef.scatterAddRows(hRef, idx, 11), tRef.scatterAddRows(hRef, idx, 11))
	lossRef := tRef.BCEWithLogits(tRef.RowSums(aggRef), labels, 1)
	tRef.Backward(lossRef)

	for _, workers := range fusedWorkers {
		w := NewParam("w", wRef.Value.Clone())
		tape := NewTapeArena(nil)
		tape.SetKernels(kernels.Context{Workers: workers})
		h := tape.MatMul(tape.Constant(x), tape.Use(w))
		agg := tape.Add(tape.AggregateRows(h, idx, 11), tape.AggregateRows(h, idx, 11))
		loss := tape.BCEWithLogits(tape.RowSums(agg), labels, 1)
		tape.Backward(loss)

		if loss.Value.At(0, 0) != lossRef.Value.At(0, 0) {
			t.Fatalf("workers=%d: AggregateRows loss differs", workers)
		}
		if agg.Value.MaxAbsDiff(aggRef.Value) != 0 {
			t.Fatalf("workers=%d: AggregateRows forward differs", workers)
		}
		if w.Grad.MaxAbsDiff(wRef.Grad) != 0 {
			t.Fatalf("workers=%d: AggregateRows gradient differs", workers)
		}
	}
}

// TestFusedOpGrads checks each fused op's backward against central
// differences, through every branch of it. Linear runs with ReLU on and
// off over a direct segment and two gathered ones (repeated indices, so
// rows receive several contributions); with one node passed as two
// direct segments and as two gathered ones, as the GNN's X0 is at step
// 0; and at widths that reach both backward AVX tiles and their
// remainders. AggregateRows feeds one aggregation (the gather backward)
// and two (the fused gather-accumulate backward).
func TestFusedOpGrads(t *testing.T) {
	r := rng.New(79)
	x := NewParam("x", tensor.RandN(r, 6, 3, 1))
	e := NewParam("e", tensor.RandN(r, 8, 2, 1))
	src := []int{0, 2, 2, 5, 1, 0, 3, 4}
	dst := []int{1, 1, 4, 0, 5, 3, 3, 2}
	w := NewParam("w", tensor.RandN(r, 2+3+3, 4, 0.5))
	b := NewParam("b", tensor.RandN(r, 1, 4, 0.5))
	for _, relu := range []bool{true, false} {
		checkGrad(t, fmt.Sprintf("linear relu=%v", relu), []*Param{x, e, w, b}, func() (*Tape, *Node) {
			tp := NewTapeArena(nil)
			xn := tp.Use(x)
			out := tp.Linear(tp.Use(w), tp.Use(b), relu, Seg{N: tp.Use(e)}, Seg{N: xn, Idx: src}, Seg{N: xn, Idx: dst})
			return tp, tp.mean(tp.Mul(out, out))
		})
	}

	w2 := NewParam("w2", tensor.RandN(r, 2+2+3+3, 4, 0.5))
	checkGrad(t, "linear one node twice", []*Param{x, e, w2, b}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		xn, en := tp.Use(x), tp.Use(e)
		out := tp.Linear(tp.Use(w2), tp.Use(b), true, Seg{N: en}, Seg{N: en}, Seg{N: xn, Idx: src}, Seg{N: xn, Idx: src})
		return tp, tp.mean(tp.Mul(out, out))
	})

	// dSeg = dOut·W_jᵀ is 9×5 and 9×7 at k = 17 (2×4 tiles, an odd row,
	// a partial column quad and a tail term); dW_j = segᵀ·dOut is 5×17 and
	// 7×17 (2×16 tiles, an odd row and one more column).
	wide := NewParam("wide", tensor.RandN(r, 9, 5, 1))
	xw := NewParam("xw", tensor.RandN(r, 4, 7, 1))
	idx := []int{3, 0, 0, 2, 1, 3, 3, 2, 0}
	ww := NewParam("ww", tensor.RandN(r, 5+7, 17, 0.5))
	bw := NewParam("bw", tensor.RandN(r, 1, 17, 0.5))
	checkGrad(t, "linear wide", []*Param{wide, xw, ww, bw}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		out := tp.Linear(tp.Use(ww), tp.Use(bw), true, Seg{N: tp.Use(wide)}, Seg{N: tp.Use(xw), Idx: idx})
		return tp, tp.mean(tp.Mul(out, out))
	})

	checkGrad(t, "aggregaterows", []*Param{e}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		agg := tp.AggregateRows(tp.Use(e), src, 6)
		return tp, tp.mean(tp.Mul(agg, agg))
	})
	checkGrad(t, "aggregaterows twice", []*Param{e}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		en := tp.Use(e)
		agg := tp.Add(tp.AggregateRows(en, src, 6), tp.Mul(tp.AggregateRows(en, dst, 6), tp.AggregateRows(en, src, 6)))
		return tp, tp.mean(tp.Mul(agg, agg))
	})
}

// TestFusedStepAllocationBudget extends the steady-state allocation
// budget to a warm arena tape built from the fused ops: buffer memory
// (including the incidence matrices of AggregateRows) stays entirely
// pooled, leaving only per-op bookkeeping.
func TestFusedStepAllocationBudget(t *testing.T) {
	ps, src, dst, labels := fusedFixture()
	arena := workspace.NewArena()
	defer arena.Reset()
	tape := NewTapeArena(arena)
	for i := 0; i < 3; i++ {
		tape.Reset()
		runFused(tape, ps, src, dst, labels)
		arena.Reset()
	}
	nodes := 0
	allocs := testing.AllocsPerRun(50, func() {
		tape.Reset()
		runFused(tape, ps, src, dst, labels)
		nodes = len(tape.nodes)
		arena.Reset()
	})
	budget := float64(4*nodes + 10)
	if allocs > budget {
		t.Fatalf("warm fused step allocated %.1f per run for %d nodes, budget %.0f", allocs, nodes, budget)
	}
}

// TestLinearSegmentsAllocateNothing pins the per-segment cost of Linear
// at zero heap allocations: forward and backward over six segments of
// one constant, direct or gathered, allocate exactly what they do over
// one. The segments live in the op's fixed array and every per-segment
// matrix header in the backward is held by the op.
func TestLinearSegmentsAllocateNothing(t *testing.T) {
	r := rng.New(80)
	c := tensor.RandN(r, 9, 3, 1)
	idx := []int{2, 0, 8, 8, 1, 5, 3, 7, 4}
	b := NewParam("b", tensor.RandN(r, 1, 5, 0.5))
	arena := workspace.NewArena()
	defer arena.Reset()
	tape := NewTapeArena(arena)
	for _, gathered := range []bool{false, true} {
		measure := func(n int) float64 {
			w := NewParam("w", tensor.RandN(r, 3*n, 5, 0.5))
			run := func() {
				tape.Reset()
				s := Seg{N: tape.Constant(c)}
				if gathered {
					s.Idx = idx
				}
				segs := [6]Seg{s, s, s, s, s, s}
				out := tape.Linear(tape.Use(w), tape.Use(b), true, segs[:n]...)
				tape.Backward(tape.sum(out))
				arena.Reset()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			return testing.AllocsPerRun(50, run)
		}
		if one, six := measure(1), measure(6); one != six {
			t.Fatalf("gathered=%v: Linear allocated %.1f per run over one segment, %.1f over six", gathered, one, six)
		}
	}
}
