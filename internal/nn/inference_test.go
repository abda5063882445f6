package nn

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// inferenceConfigs spans the MLP shapes the pipeline instantiates: one
// and two hidden layers, and one- and several-wide outputs.
var inferenceConfigs = []MLPConfig{
	{In: 5, Hidden: []int{8, 8}, Out: 3},
	{In: 5, Hidden: []int{8}, Out: 1},
	{In: 4, Hidden: []int{6}, Out: 2},
	{In: 3, Hidden: []int{4}, Out: 2},
}

// TestMLPInferenceF64MatchesTapeForward is the load-bearing refactor
// guarantee: the tape-free float64 inference forward — one GEMM with a
// bias(+ReLU) epilogue per layer — is bitwise identical to MLP.ForwardSegs
// on an autograd tape.
func TestMLPInferenceF64MatchesTapeForward(t *testing.T) {
	for ci, cfg := range inferenceConfigs {
		m := NewMLP(rng.New(uint64(40+ci)), "m", cfg)
		x := tensor.RandN(rng.New(uint64(90+ci)), 17, cfg.In, 1)

		tape := autograd.NewTapeArena(nil)
		want := m.ForwardSegs(tape, autograd.Seg{N: tape.Constant(x)}).Value

		inf := NewMLPInference[float64](m)
		arena := workspace.NewArena()
		defer arena.Reset()
		got := inf.Forward(kernels.Context{}, arena, tensor.Seg[float64]{M: x})
		if want.MaxAbsDiff(got) != 0 {
			t.Fatalf("config %d: inference forward differs from tape forward by %v",
				ci, want.MaxAbsDiff(got))
		}
		// And at an explicit worker budget.
		got2 := inf.Forward(kernels.Context{Workers: 3}, arena, tensor.Seg[float64]{M: x})
		if want.MaxAbsDiff(got2) != 0 {
			t.Fatalf("config %d: inference forward differs at 3 workers", ci)
		}
	}
}

// bitsEqual compares Float64bits, so a NaN left behind counts.
func bitsEqual(want, got *tensor.Dense) bool {
	if !want.SameShape(got) {
		return false
	}
	for i, v := range want.Data() {
		if math.Float64bits(v) != math.Float64bits(got.Data()[i]) {
			return false
		}
	}
	return true
}

// TestMLPInferenceSegmentsMatchTape feeds the first layer the filter's
// input shape [X[src] ‖ X[dst] ‖ E] as segments and compares with the
// tape forward over the materialised gather+concat, at every worker
// count. ForwardInto gets NaN-filled buffers: it must store every
// element of the activations it is handed, which is what lets the GNN
// reuse one set across message-passing steps.
func TestMLPInferenceSegmentsMatchTape(t *testing.T) {
	for ci, cfg := range inferenceConfigs {
		r := rng.New(uint64(240 + ci))
		const nodes, edges = 11, 23
		wx := cfg.In / 3
		x := tensor.RandN(r, nodes, wx, 1)
		e := tensor.RandN(r, edges, cfg.In-2*wx, 1)
		src, dst := make([]int, edges), make([]int, edges)
		for i := range src {
			src[i], dst[i] = r.Intn(nodes), r.Intn(nodes)
		}
		m := NewMLP(r, "m", cfg)
		for _, p := range m.Params() {
			for i, d := 0, p.Value.Data(); i < len(d); i++ {
				d[i] += 0.1 * r.NormFloat64()
			}
		}

		tape := autograd.NewTapeArena(nil)
		xs := tape.Constant(x)
		want := m.ForwardSegs(tape, autograd.Seg{N: tape.ConcatCols(tape.GatherRows(xs, src), tape.GatherRows(xs, dst), tape.Constant(e))}).Value

		inf := NewMLPInference[float64](m)
		in := []tensor.Seg[float64]{{M: x, Idx: src}, {M: x, Idx: dst}, {M: e}}
		for _, w := range []int{1, 2, 3} {
			kc := kernels.Context{Workers: w}
			if !bitsEqual(want, inf.Forward(kc, nil, in...)) {
				t.Fatalf("config %d, %d workers: Forward differs from tape", ci, w)
			}
			out := tensor.New(edges, cfg.Out)
			out.Fill(math.NaN())
			hid := make([]*tensor.Dense, len(cfg.Hidden))
			for i, h := range cfg.Hidden {
				hid[i] = tensor.New(edges, h)
				hid[i].Fill(math.NaN())
			}
			inf.ForwardInto(kc, out, hid, in...)
			if !bitsEqual(want, out) {
				t.Fatalf("config %d, %d workers: ForwardInto differs from tape", ci, w)
			}
		}
	}
}

// TestMLPInferenceF32WithinTolerance bounds the rounding drift of the
// float32 forward against float64 on small unit-scale networks.
func TestMLPInferenceF32WithinTolerance(t *testing.T) {
	for ci, cfg := range inferenceConfigs {
		m := NewMLP(rng.New(uint64(140+ci)), "m", cfg)
		x64 := tensor.RandN(rng.New(uint64(190+ci)), 17, cfg.In, 1)

		inf64 := NewMLPInference[float64](m)
		want := inf64.Forward(kernels.Context{}, nil, tensor.Seg[float64]{M: x64})

		inf32 := NewMLPInference[float32](m)
		x32 := tensor.ConvertFrom[float32](nil, x64)
		got := tensor.ConvertFrom[float64](nil, inf32.Forward(kernels.Context{}, nil, tensor.Seg[float32]{M: x32}))
		if d := want.MaxAbsDiff(got); d > 1e-4 {
			t.Fatalf("config %d: f32 forward drifts %v from f64", ci, d)
		}
	}
}

// TestMLPInferenceImmutableUnderForward guards the concurrency
// contract: Forward must not touch the weights.
func TestMLPInferenceImmutableUnderForward(t *testing.T) {
	cfg := MLPConfig{In: 4, Hidden: []int{6}, Out: 2}
	m := NewMLP(rng.New(7), "m", cfg)
	inf := NewMLPInference[float32](m)
	before := make([]*tensor.Matrix[float32], len(inf.w))
	for i, w := range inf.w {
		before[i] = w.Clone()
	}
	x := tensor.ConvertFrom[float32](nil, tensor.RandN(rng.New(8), 9, cfg.In, 1))
	inf.Forward(kernels.Context{}, nil, tensor.Seg[float32]{M: x})
	for i, w := range inf.w {
		if w.MaxAbsDiff(before[i]) != 0 {
			t.Fatalf("weight %d mutated by Forward", i)
		}
	}
}

// TestMLPInferenceConversionRoundsOnce pins the conversion semantics:
// each f32 weight is the one-step rounding of the trained f64 weight.
func TestMLPInferenceConversionRoundsOnce(t *testing.T) {
	m := NewMLP(rng.New(17), "m", MLPConfig{In: 3, Hidden: []int{5}, Out: 2})
	inf := NewMLPInference[float32](m)
	params := m.Params()
	// Layer weights come first in Params order (W, b per layer).
	if got, want := inf.w[0].At(1, 2), float32(params[0].Value.At(1, 2)); got != want {
		t.Fatalf("converted weight %v, want %v", got, want)
	}
	if got, want := inf.b[0].At(0, 1), float32(params[1].Value.At(0, 1)); got != want {
		t.Fatalf("converted bias %v, want %v", got, want)
	}
}
