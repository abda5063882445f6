package autograd

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// buildStep runs one representative forward+backward (a 2-layer MLP with
// gather/scatter message passing, like a miniature GNN step) on the given
// tape and returns the parameter gradients.
func buildStep(t *Tape, w1, w2 *Param, x *tensor.Dense, idx []int, labels []float64) float64 {
	h := t.ReLU(t.MatMul(t.Constant(x), t.Use(w1)))
	gathered := t.GatherRows(h, idx)
	agg := t.scatterAddRows(gathered, idx, x.Rows())
	cat := t.ConcatCols(h, agg)
	logits := t.MatMul(cat, t.Use(w2))
	loss := t.BCEWithLogits(logits, labels, 1.5)
	t.Backward(loss)
	return loss.Value.At(0, 0)
}

func stepFixture() (w1, w2 *Param, x *tensor.Dense, idx []int, labels []float64) {
	r := rng.New(42)
	w1 = NewParam("w1", tensor.RandN(r, 6, 8, 0.5))
	w2 = NewParam("w2", tensor.RandN(r, 16, 1, 0.5))
	x = tensor.RandN(r, 10, 6, 1)
	idx = []int{0, 3, 9, 3, 5, 1, 7, 7, 2, 4}
	labels = make([]float64, 10)
	for i := range labels {
		if r.Float64() > 0.5 {
			labels[i] = 1
		}
	}
	return
}

// TestArenaTapeMatchesHeapTape proves the pooled tape is bit-identical
// to the heap tape: same loss, same parameter gradients.
func TestArenaTapeMatchesHeapTape(t *testing.T) {
	w1a, w2a, x, idx, labels := stepFixture()
	w1b := NewParam("w1", w1a.Value.Clone())
	w2b := NewParam("w2", w2a.Value.Clone())

	lossHeap := buildStep(NewTapeArena(nil), w1a, w2a, x, idx, labels)

	arena := workspace.NewArena()
	defer arena.Reset()
	lossArena := buildStep(NewTapeArena(arena), w1b, w2b, x, idx, labels)

	if lossHeap != lossArena {
		t.Fatalf("loss differs: heap %v arena %v", lossHeap, lossArena)
	}
	if w1a.Grad.MaxAbsDiff(w1b.Grad) != 0 || w2a.Grad.MaxAbsDiff(w2b.Grad) != 0 {
		t.Fatal("arena-tape gradients not bit-identical to heap-tape gradients")
	}
}

// TestArenaTapeReuseAcrossSteps proves a Reset tape + arena pair keeps
// producing correct gradients when reused (the trainer's steady state).
func TestArenaTapeReuseAcrossSteps(t *testing.T) {
	w1, w2, x, idx, labels := stepFixture()
	w1ref := NewParam("w1", w1.Value.Clone())
	w2ref := NewParam("w2", w2.Value.Clone())

	arena := workspace.NewArena()
	defer arena.Reset()
	tape := NewTapeArena(arena)
	for step := 0; step < 5; step++ {
		w1.ZeroGrad()
		w2.ZeroGrad()
		tape.Reset()
		buildStep(tape, w1, w2, x, idx, labels)
		arena.Reset()

		w1ref.ZeroGrad()
		w2ref.ZeroGrad()
		buildStep(NewTapeArena(nil), w1ref, w2ref, x, idx, labels)
		if w1.Grad.MaxAbsDiff(w1ref.Grad) != 0 || w2.Grad.MaxAbsDiff(w2ref.Grad) != 0 {
			t.Fatalf("step %d: reused arena tape diverged from fresh heap tape", step)
		}
	}
}

// TestTrainStepAllocationBudget pins the steady-state allocation budget
// of a full forward+backward step on a warm arena tape. Buffer memory is
// entirely pooled; what remains is per-op bookkeeping — Dense headers
// (32 B each, pointing at pooled storage), backward closures, and one
// node-slab chunk every 128 nodes — a small constant per recorded op,
// independent of tensor sizes. The budget below is 4 allocations per
// node plus slack; the pre-workspace implementation also heap-allocated
// every activation, gradient, and scratch *buffer* (unbounded bytes:
// ~100 KiB per step at this toy size, megabytes at production size).
func TestTrainStepAllocationBudget(t *testing.T) {
	w1, w2, x, idx, labels := stepFixture()
	arena := workspace.NewArena()
	defer arena.Reset()
	tape := NewTapeArena(arena)
	// Warm pools, slab, and list capacities.
	for i := 0; i < 3; i++ {
		tape.Reset()
		buildStep(tape, w1, w2, x, idx, labels)
		arena.Reset()
	}
	nodes := 0
	allocs := testing.AllocsPerRun(50, func() {
		tape.Reset()
		buildStep(tape, w1, w2, x, idx, labels)
		nodes = len(tape.nodes)
		arena.Reset()
	})
	budget := float64(4*nodes + 10)
	if allocs > budget {
		t.Fatalf("warm train step allocated %.1f per run for %d nodes, budget %.0f", allocs, nodes, budget)
	}
}
