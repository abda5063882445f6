package embed

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestInferenceF64MatchesTapeEmbed keeps tape == inference a gate now
// that EmbedCtx runs the tape-free float64 view: it reproduces the
// MLP's forward on a tape bit for bit at every worker count, on trained
// (non-zero-bias) weights.
func TestInferenceF64MatchesTapeEmbed(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	cfg := DefaultConfig(spec)
	e := New(cfg, rng.New(3))
	r := rng.New(4)
	for _, p := range e.Params() {
		for i, d := 0, p.Value.Data(); i < len(d); i++ {
			d[i] += 0.1 * r.NormFloat64()
		}
	}
	for _, hits := range []int{40, 1} {
		feat := tensor.RandN(r, hits, cfg.InputFeatures, 1)
		tape := autograd.NewTape()
		want := e.mlp.Forward(tape, tape.Constant(feat)).Value
		for _, w := range []int{1, 2, 3} {
			got := e.EmbedCtx(kernels.Context{Workers: w}, nil, feat)
			for i, v := range want.Data() {
				if math.Float64bits(v) != math.Float64bits(got.Data()[i]) {
					t.Fatalf("%d hits, %d workers: element %d differs: %v vs %v", hits, w, i, v, got.Data()[i])
				}
			}
		}
	}
}

func TestInferenceF32WithinTolerance(t *testing.T) {
	spec := detector.Ex3Like(0.02)
	cfg := DefaultConfig(spec)
	e := New(cfg, rng.New(5))
	feat := tensor.RandN(rng.New(6), 40, cfg.InputFeatures, 1)

	want := e.EmbedCtx(kernels.Context{}, nil, feat)
	got32 := NewInference[float32](e).EmbedCtx(kernels.Context{}, nil, tensor.ConvertFrom[float32](nil, feat))
	got := tensor.ConvertFrom[float64](nil, got32)
	if d := want.MaxAbsDiff(got); d > 1e-4 {
		t.Fatalf("f32 embedding drifts %v from f64", d)
	}
}
