package ignn

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func tinyConfig() Config {
	return Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 8, Steps: 2}
}

// ring builds a ring graph with n vertices and random features.
func ring(r *rng.Rand, n int, cfg Config) (src, dst []int, x, y *tensor.Dense) {
	for i := 0; i < n; i++ {
		src = append(src, i)
		dst = append(dst, (i+1)%n)
	}
	return src, dst, tensor.RandN(r, n, cfg.NodeFeatures, 1), tensor.RandN(r, n, cfg.EdgeFeatures, 1)
}

func TestForwardShapes(t *testing.T) {
	cfg := tinyConfig()
	r := rng.New(1)
	m := New(cfg, r)
	src, dst, x, y := ring(r, 6, cfg)
	tp := autograd.NewTape()
	out := m.Forward(tp, src, dst, x, y)
	if out.Value.Rows() != 6 || out.Value.Cols() != 1 {
		t.Fatalf("logits %dx%d, want 6x1", out.Value.Rows(), out.Value.Cols())
	}
}

func TestAllParamsReceiveGradient(t *testing.T) {
	cfg := tinyConfig()
	r := rng.New(2)
	m := New(cfg, r)
	src, dst, x, y := ring(r, 8, cfg)
	labels := make([]float64, len(src))
	for i := range labels {
		labels[i] = float64(i % 2)
	}
	tp := autograd.NewTape()
	loss := tp.BCEWithLogits(m.Forward(tp, src, dst, x, y), labels, 1)
	tp.Backward(loss)
	for _, p := range m.Params() {
		if p.Grad.Norm2() == 0 {
			t.Fatalf("param %s received zero gradient", p.Name)
		}
	}
}

func TestParamCountScalesWithSteps(t *testing.T) {
	r := rng.New(3)
	cfg := tinyConfig()
	m2 := New(cfg, r)
	cfg.Steps = 4
	m4 := New(cfg, r)
	// Each extra step adds an edge MLP + node MLP (4 params each without
	// layer norm: two linear layers ×(W,b)).
	extra := len(m4.Params()) - len(m2.Params())
	if extra != 2*2*4 {
		t.Fatalf("extra params for 2 extra steps: %d, want 16", extra)
	}
}

func TestDeterministicForward(t *testing.T) {
	cfg := tinyConfig()
	a := New(cfg, rng.New(7))
	b := New(cfg, rng.New(7))
	r := rng.New(8)
	src, dst, x, y := ring(r, 5, cfg)
	sa := a.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	sb := b.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same-seed models disagree at edge %d", i)
		}
	}
}

func TestPermutationEquivariance(t *testing.T) {
	// Relabeling vertices (and permuting features consistently) must leave
	// per-edge scores unchanged.
	cfg := tinyConfig()
	r := rng.New(4)
	m := New(cfg, r)
	src, dst, x, y := ring(r, 7, cfg)
	base := m.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)

	perm := rng.New(5).Perm(7)
	inv := make([]int, 7)
	for i, p := range perm {
		inv[p] = i
	}
	px := tensor.GatherRows(x, inv) // row perm[i] of px = row i of x ⇔ px[j] = x[inv[j]]
	psrc := make([]int, len(src))
	pdst := make([]int, len(dst))
	for k := range src {
		psrc[k] = perm[src[k]]
		pdst[k] = perm[dst[k]]
	}
	got := m.EdgeScoresCtx(kernels.Context{}, nil, psrc, pdst, px, y)
	for k := range base {
		if math.Abs(base[k]-got[k]) > 1e-9 {
			t.Fatalf("edge %d score changed under relabeling: %v vs %v", k, base[k], got[k])
		}
	}
}

func TestLearnsEdgeParity(t *testing.T) {
	// Edges whose feature sign is positive are labeled 1: the GNN must
	// learn a separable rule through message passing.
	cfg := Config{NodeFeatures: 2, EdgeFeatures: 2, Hidden: 12, Steps: 2}
	r := rng.New(6)
	m := New(cfg, r)
	src, dst, x, y := ring(r, 24, cfg)
	labels := make([]float64, len(src))
	for i := range labels {
		if y.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	opt := nn.NewAdam(5e-3)
	for step := 0; step < 150; step++ {
		tp := autograd.NewTape()
		loss := tp.BCEWithLogits(m.Forward(tp, src, dst, x, y), labels, 1)
		tp.Backward(loss)
		opt.Step(m.Params())
	}
	scores := m.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	correct := 0
	for i, s := range scores {
		if (s > 0.5) == (labels[i] > 0.5) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(scores)); acc < 0.95 {
		t.Fatalf("edge classification accuracy %v after training", acc)
	}
}

func TestEstimateActivationElementsTracksTape(t *testing.T) {
	cfg := Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 16, Steps: 3}
	r := rng.New(9)
	m := New(cfg, r)
	src, dst, x, y := ring(r, 40, cfg)
	tp := autograd.NewTape()
	m.Forward(tp, src, dst, x, y)
	actual := tp.ActivationElements()
	est := EstimateActivationElements(cfg, 40, len(src))
	ratio := float64(est) / float64(actual)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("estimate %d vs actual %d (ratio %v) outside [0.5, 2]", est, actual, ratio)
	}
}

func TestEstimateMonotoneInSize(t *testing.T) {
	cfg := tinyConfig()
	small := EstimateActivationElements(cfg, 100, 300)
	big := EstimateActivationElements(cfg, 1000, 3000)
	if big <= small {
		t.Fatal("activation estimate not monotone in graph size")
	}
	cfg.Steps = 8
	deeper := EstimateActivationElements(cfg, 100, 300)
	if deeper <= small {
		t.Fatal("activation estimate not monotone in depth")
	}
}

func TestForwardValidation(t *testing.T) {
	cfg := tinyConfig()
	r := rng.New(10)
	m := New(cfg, r)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched edge features did not panic")
		}
	}()
	tp := autograd.NewTape()
	m.Forward(tp, []int{0, 1}, []int{1, 0}, tensor.New(2, 3), tensor.New(5, 2))
}
