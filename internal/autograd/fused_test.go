package autograd

import (
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

// fusedFixture builds a miniature GNN-shaped problem: gather two
// endpoints, run a biased ReLU layer, aggregate messages back to the
// vertices (the same value feeding both aggregations, which exercises
// the fused gradient-accumulate backward), and reduce to a loss.
func fusedFixture() (w *Param, bias *Param, x *tensor.Dense, e *tensor.Dense, src, dst []int, labels []float64) {
	r := rng.New(77)
	x = tensor.RandN(r, 13, 5, 1)
	e = tensor.RandN(r, 31, 4, 1)
	src = make([]int, 31)
	dst = make([]int, 31)
	for i := range src {
		src[i] = r.Intn(13)
		dst[i] = r.Intn(13)
	}
	w = NewParam("w", tensor.RandN(r, 4+5+5, 6, 0.5))
	bias = NewParam("b", tensor.RandN(r, 1, 6, 0.5))
	labels = make([]float64, 13)
	for i := range labels {
		if r.Float64() > 0.5 {
			labels[i] = 1
		}
	}
	return
}

func runFused(t *Tape, w, bias *Param, x, e *tensor.Dense, src, dst []int, labels []float64) float64 {
	xn, en := t.Constant(x), t.Constant(e)
	in := t.GatherConcat3(en, nil, xn, src, xn, dst)
	h := t.AddBiasReLU(t.MatMul(in, t.Use(w)), t.Use(bias))
	msrc := t.AggregateRows(h, src, x.Rows())
	mdst := t.AggregateRows(h, dst, x.Rows())
	score := t.RowSums(t.Add(msrc, mdst))
	loss := t.BCEWithLogits(score, labels, 1.25)
	t.Backward(loss)
	return loss.Value.At(0, 0)
}

func runUnfused(t *Tape, w, bias *Param, x, e *tensor.Dense, src, dst []int, labels []float64) float64 {
	xn, en := t.Constant(x), t.Constant(e)
	in := t.ConcatCols(en, t.GatherRows(xn, src), t.GatherRows(xn, dst))
	h := t.ReLU(t.AddBias(t.MatMul(in, t.Use(w)), t.Use(bias)))
	msrc := t.ScatterAddRows(h, src, x.Rows())
	mdst := t.ScatterAddRows(h, dst, x.Rows())
	score := t.RowSums(t.Add(msrc, mdst))
	loss := t.BCEWithLogits(score, labels, 1.25)
	t.Backward(loss)
	return loss.Value.At(0, 0)
}

func TestFusedOpsMatchUnfusedBitwise(t *testing.T) {
	w1, b1, x, e, src, dst, labels := fusedFixture()
	lossRef := runUnfused(NewTape(), w1, b1, x, e, src, dst, labels)

	for _, workers := range fusedWorkers {
		w2 := NewParam("w", w1.Value.Clone())
		b2 := NewParam("b", b1.Value.Clone())
		arena := workspace.NewArena()
		tape := NewTapeArena(arena)
		tape.SetKernels(kernels.Context{Workers: workers})
		loss := runFused(tape, w2, b2, x, e, src, dst, labels)
		if loss != lossRef {
			t.Fatalf("workers=%d: fused loss %v != unfused %v", workers, loss, lossRef)
		}
		if w1.Grad.MaxAbsDiff(w2.Grad) != 0 || b1.Grad.MaxAbsDiff(b2.Grad) != 0 {
			t.Fatalf("workers=%d: fused gradients not bit-identical to unfused", workers)
		}
		arena.Reset()
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
	tRef := NewTape()
	hRef := tRef.MatMul(tRef.Constant(x), tRef.Use(wRef))
	// h feeds two aggregations so backward accumulates into h twice.
	aggRef := tRef.Add(tRef.ScatterAddRows(hRef, idx, 11), tRef.ScatterAddRows(hRef, idx, 11))
	lossRef := tRef.BCEWithLogits(tRef.RowSums(aggRef), labels, 1)
	tRef.Backward(lossRef)

	for _, workers := range fusedWorkers {
		w := NewParam("w", wRef.Value.Clone())
		tape := NewTape()
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
// differences, through every branch of it: AddBiasReLU with both parents
// trainable and with the bias alone, GatherConcat3 with a direct and two
// gathered segments (repeated indices, so rows receive several
// contributions), and AggregateRows feeding one aggregation (the gather
// backward) and two (the fused gather-accumulate backward).
func TestFusedOpGrads(t *testing.T) {
	r := rng.New(79)
	a := tensor.RandN(r, 7, 5, 1)
	bias := tensor.RandN(r, 1, 5, 1)
	// Keep every pre-activation away from the ReLU kink.
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if s := a.At(i, j) + bias.At(0, j); s > -0.05 && s < 0.05 {
				a.Set(i, j, a.At(i, j)+0.2)
			}
		}
	}
	ap, bp := NewParam("a", a), NewParam("bias", bias)
	checkGrad(t, "addbiasrelu", []*Param{ap, bp}, func() (*Tape, *Node) {
		tp := NewTape()
		out := tp.AddBiasReLU(tp.Use(ap), tp.Use(bp))
		return tp, tp.Mean(tp.Mul(out, out))
	})
	checkGrad(t, "addbiasrelu bias only", []*Param{bp}, func() (*Tape, *Node) {
		tp := NewTape()
		out := tp.AddBiasReLU(tp.Constant(a), tp.Use(bp))
		return tp, tp.Mean(tp.Mul(out, out))
	})

	x := NewParam("x", tensor.RandN(r, 6, 3, 1))
	e := NewParam("e", tensor.RandN(r, 8, 2, 1))
	src := []int{0, 2, 2, 5, 1, 0, 3, 4}
	dst := []int{1, 1, 4, 0, 5, 3, 3, 2}
	mix := tensor.RandN(r, 2+3+3, 2, 1)
	checkGrad(t, "gatherconcat3", []*Param{x, e}, func() (*Tape, *Node) {
		tp := NewTape()
		xn := tp.Use(x)
		cat := tp.GatherConcat3(tp.Use(e), nil, xn, src, xn, dst)
		out := tp.MatMul(cat, tp.Constant(mix))
		return tp, tp.Mean(tp.Mul(out, out))
	})

	checkGrad(t, "aggregaterows", []*Param{e}, func() (*Tape, *Node) {
		tp := NewTape()
		agg := tp.AggregateRows(tp.Use(e), src, 6)
		return tp, tp.Mean(tp.Mul(agg, agg))
	})
	checkGrad(t, "aggregaterows twice", []*Param{e}, func() (*Tape, *Node) {
		tp := NewTape()
		en := tp.Use(e)
		agg := tp.Add(tp.AggregateRows(en, src, 6), tp.Mul(tp.AggregateRows(en, dst, 6), tp.AggregateRows(en, src, 6)))
		return tp, tp.Mean(tp.Mul(agg, agg))
	})
}

// TestFusedStepAllocationBudget extends the steady-state allocation
// budget to a warm arena tape built from the fused ops: buffer memory
// (including the incidence matrices of AggregateRows) stays entirely
// pooled, leaving only per-op bookkeeping.
func TestFusedStepAllocationBudget(t *testing.T) {
	w, bias, x, e, src, dst, labels := fusedFixture()
	arena := workspace.NewArena()
	defer arena.Reset()
	tape := NewTapeArena(arena)
	for i := 0; i < 3; i++ {
		tape.Reset()
		runFused(tape, w, bias, x, e, src, dst, labels)
		arena.Reset()
	}
	nodes := 0
	allocs := testing.AllocsPerRun(50, func() {
		tape.Reset()
		runFused(tape, w, bias, x, e, src, dst, labels)
		nodes = tape.NumNodes()
		arena.Reset()
	})
	budget := float64(4*nodes + 10)
	if allocs > budget {
		t.Fatalf("warm fused step allocated %.1f per run for %d nodes, budget %.0f", allocs, nodes, budget)
	}
}
