package nn

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	r := rng.New(1)
	l := NewLinear(r, "lin", 4, 7)
	tp := autograd.NewTape()
	x := tp.Constant(tensor.RandN(r, 10, 4, 1))
	y := l.Forward(tp, x)
	if y.Value.Rows() != 10 || y.Value.Cols() != 7 {
		t.Fatalf("Linear output %dx%d, want 10x7", y.Value.Rows(), y.Value.Cols())
	}
	if l.In() != 4 || l.Out() != 7 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
}

func TestMLPParamCount(t *testing.T) {
	r := rng.New(2)
	m := NewMLP(r, "mlp", MLPConfig{In: 6, Hidden: []int{16, 16}, Out: 1, Activation: ReLU})
	// 3 linear layers × (W, b) = 6 params.
	if got := len(m.Params()); got != 6 {
		t.Fatalf("param count %d, want 6", got)
	}
	mn := NewMLP(r, "mlpn", MLPConfig{In: 6, Hidden: []int{16, 16}, Out: 1, Activation: ReLU, LayerNorm: true})
	// + 2 layer norms × (gain, bias) = 10.
	if got := len(mn.Params()); got != 10 {
		t.Fatalf("layernorm param count %d, want 10", got)
	}
	if m.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d, want 3", m.NumLayers())
	}
}

// trainXOR trains an MLP on XOR and returns final accuracy — the smoke
// test that forward, backward, and the optimizer compose correctly.
func trainXOR(t *testing.T, opt Optimizer, layerNorm bool) float64 {
	t.Helper()
	r := rng.New(42)
	m := NewMLP(r, "xor", MLPConfig{In: 2, Hidden: []int{16}, Out: 1, Activation: Tanh, LayerNorm: layerNorm})
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 800; epoch++ {
		tp := autograd.NewTape()
		out := m.Forward(tp, tp.Constant(x))
		loss := tp.BCEWithLogits(out, y, 1)
		tp.Backward(loss)
		opt.Step(m.Params())
	}
	tp := autograd.NewTape()
	out := m.Forward(tp, tp.Constant(x))
	correct := 0
	for i, target := range y {
		pred := 0.0
		if out.Value.At(i, 0) > 0 {
			pred = 1
		}
		if pred == target {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

func TestMLPLearnsXORWithSGD(t *testing.T) {
	if acc := trainXOR(t, &SGD{LR: 0.5, Momentum: 0.9}, false); acc < 1.0 {
		t.Fatalf("SGD XOR accuracy %v, want 1.0", acc)
	}
}

func TestMLPLearnsXORWithAdam(t *testing.T) {
	if acc := trainXOR(t, NewAdam(0.01), false); acc < 1.0 {
		t.Fatalf("Adam XOR accuracy %v, want 1.0", acc)
	}
}

func TestMLPLearnsXORWithLayerNorm(t *testing.T) {
	if acc := trainXOR(t, NewAdam(0.01), true); acc < 1.0 {
		t.Fatalf("LayerNorm XOR accuracy %v, want 1.0", acc)
	}
}

func TestSGDStepDirection(t *testing.T) {
	p := autograd.NewParam("p", tensor.FromRows([][]float64{{1.0}}))
	p.Grad.Set(0, 0, 2.0)
	NewSGD(0.1).Step([]*autograd.Param{p})
	if got := p.Value.At(0, 0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("SGD step got %v, want 0.8", got)
	}
	if p.Grad.At(0, 0) != 0 {
		t.Fatal("SGD did not zero grad")
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := autograd.NewParam("p", tensor.FromRows([][]float64{{1.0}}))
	o := &SGD{LR: 0.1, WeightDecay: 0.5}
	o.Step([]*autograd.Param{p}) // grad 0 + decay 0.5*1 = 0.5 → p -= 0.05
	if got := p.Value.At(0, 0); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("weight decay step got %v, want 0.95", got)
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// On the first step Adam moves by ≈ lr * sign(grad).
	p := autograd.NewParam("p", tensor.FromRows([][]float64{{0.0}}))
	p.Grad.Set(0, 0, 3.0)
	NewAdam(0.01).Step([]*autograd.Param{p})
	if got := p.Value.At(0, 0); math.Abs(got+0.01) > 1e-6 {
		t.Fatalf("Adam first step got %v, want ≈ -0.01", got)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	r := rng.New(3)
	m := NewMLP(r, "m", MLPConfig{In: 3, Hidden: []int{5}, Out: 2, Activation: ReLU})
	params := m.Params()
	for _, p := range params {
		p.Grad.CopyFrom(tensor.RandN(r, p.Grad.Rows(), p.Grad.Cols(), 1))
	}
	buf := make([]float64, GradElements(params))
	FlattenGrads(params, buf)
	saved := make([][]float64, len(params))
	for i, p := range params {
		saved[i] = append([]float64(nil), p.Grad.Data()...)
	}
	ZeroGrads(params)
	UnflattenGrads(params, buf)
	for i, p := range params {
		for j, v := range p.Grad.Data() {
			if v != saved[i][j] {
				t.Fatalf("param %d elem %d: %v != %v after round trip", i, j, v, saved[i][j])
			}
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP(rng.New(7), "a", MLPConfig{In: 4, Hidden: []int{8}, Out: 2, Activation: ReLU})
	b := NewMLP(rng.New(7), "a", MLPConfig{In: 4, Hidden: []int{8}, Out: 2, Activation: ReLU})
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i].Value.MaxAbsDiff(pb[i].Value) != 0 {
			t.Fatalf("same-seed init differs at param %d", i)
		}
	}
}
