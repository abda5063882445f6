package filter

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func inferenceFixture(seed uint64) (*EdgeFilter, *tensor.Dense, *tensor.Dense, []int, []int) {
	cfg := DefaultConfig(5, 2, 2)
	f := New(cfg, rng.New(seed))
	r := rng.New(seed + 1)
	nodeFeat := tensor.RandN(r, 30, cfg.NodeFeatures, 1)
	src := make([]int, 64)
	dst := make([]int, 64)
	for i := range src {
		src[i] = r.Intn(30)
		dst[i] = r.Intn(30)
	}
	edgeFeat := tensor.RandN(r, len(src), cfg.EdgeFeatures, 1)
	// Move the biases off their initial zeros so the GEMM epilogue has
	// something to add.
	for _, p := range f.Params() {
		for i, d := 0, p.Value.Data(); i < len(d); i++ {
			d[i] += 0.1 * r.NormFloat64()
		}
	}
	return f, nodeFeat, edgeFeat, src, dst
}

// tapeScores is the training-path forward: the gather+concat and the
// MLP on a serial tape, then the sigmoid.
func tapeScores(f *EdgeFilter, nodeFeat, edgeFeat *tensor.Dense, src, dst []int) []float64 {
	logits := f.forward(autograd.NewTapeArena(nil), nodeFeat, edgeFeat, src, dst).Value
	out := make([]float64, len(src))
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

func scoresBitsEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: score %d differs: %v vs %v", name, i, want[i], got[i])
		}
	}
}

// TestInferenceF64MatchesTapeScores keeps tape == inference a gate now
// that serving runs the tape-free float64 view: it reproduces the
// training forward on a tape bit for bit at every worker count.
func TestInferenceF64MatchesTapeScores(t *testing.T) {
	f, nodeFeat, edgeFeat, src, dst := inferenceFixture(11)
	want := tapeScores(f, nodeFeat, edgeFeat, src, dst)
	for _, w := range []int{1, 2, 3} {
		kc := kernels.Context{Workers: w}
		scoresBitsEqual(t, "scores", want, NewInference[float64](f).ScoresCtx(kc, nil, nodeFeat, edgeFeat, src, dst))
		keep := NewInference[float64](f).KeepCtx(kc, nil, nodeFeat, edgeFeat, src, dst)
		for i, s := range want {
			if keep[i] != (s >= f.cfg.Threshold) {
				t.Fatalf("keep %d disagrees with score %v at threshold %v", i, s, f.cfg.Threshold)
			}
		}
	}
}

// TestInferenceDegenerateEvents covers the input boundary at both
// float precisions: no candidate edges (src nil or empty) scores
// nothing, and a one-hit event whose only candidates are self-loops
// matches the tape (f64) and the materialised gather+concat (f32).
func TestInferenceDegenerateEvents(t *testing.T) {
	f, nodeFeat, _, _, _ := inferenceFixture(17)
	cfg := f.cfg
	inf32 := NewInference[float32](f)
	node32 := tensor.ConvertFrom[float32](nil, nodeFeat)
	for _, none := range [][]int{nil, {}} {
		if got := NewInference[float64](f).KeepCtx(kernels.Context{}, nil, nodeFeat, tensor.New(0, cfg.EdgeFeatures), none, none); len(got) != 0 {
			t.Fatalf("f64, no edges: %d keeps", len(got))
		}
		got := inf32.ScoresCtx(kernels.Context{}, nil, node32, tensor.NewOf[float32](0, cfg.EdgeFeatures), none, none)
		if len(got) != 0 {
			t.Fatalf("f32, no edges: %d scores", len(got))
		}
	}
	r := rng.New(18)
	oneHit := tensor.RandN(r, 1, cfg.NodeFeatures, 1)
	loops := []int{0, 0}
	edgeFeat := tensor.RandN(r, len(loops), cfg.EdgeFeatures, 1)
	scoresBitsEqual(t, "one hit f64", tapeScores(f, oneHit, edgeFeat, loops, loops), NewInference[float64](f).ScoresCtx(kernels.Context{}, nil, oneHit, edgeFeat, loops, loops))

	hit32, edge32 := tensor.ConvertFrom[float32](nil, oneHit), tensor.ConvertFrom[float32](nil, edgeFeat)
	in := tensor.NewOf[float32](len(loops), 2*cfg.NodeFeatures+cfg.EdgeFeatures)
	tensor.GatherConcat3IntoCtx(kernels.Context{}, in, hit32, loops, hit32, loops, edge32, nil)
	logits := inf32.mlp.Forward(kernels.Context{}, nil, tensor.Seg[float32]{M: in})
	want := make([]float64, len(loops))
	for i := range want {
		want[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	scoresBitsEqual(t, "one hit f32", want, inf32.ScoresCtx(kernels.Context{}, nil, hit32, edge32, loops, loops))
}

func TestInferenceF32WithinTolerance(t *testing.T) {
	f, nodeFeat, edgeFeat, src, dst := inferenceFixture(13)
	want := NewInference[float64](f).ScoresCtx(kernels.Context{}, nil, nodeFeat, edgeFeat, src, dst)
	inf := NewInference[float32](f)
	got := inf.ScoresCtx(kernels.Context{}, nil,
		tensor.ConvertFrom[float32](nil, nodeFeat), tensor.ConvertFrom[float32](nil, edgeFeat), src, dst)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-4 {
			t.Fatalf("f32 score %d drifts %v", i, math.Abs(want[i]-got[i]))
		}
	}
}
