package ignn

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
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
	tp := autograd.NewTapeArena(nil)
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
	tp := autograd.NewTapeArena(nil)
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
	sa := NewInference[float64](a).EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	sb := NewInference[float64](b).EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
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
	base := NewInference[float64](m).EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)

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
	got := NewInference[float64](m).EdgeScoresCtx(kernels.Context{}, nil, psrc, pdst, px, y)
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
		tp := autograd.NewTapeArena(nil)
		loss := tp.BCEWithLogits(m.Forward(tp, src, dst, x, y), labels, 1)
		tp.Backward(loss)
		opt.Step(m.Params())
	}
	scores := NewInference[float64](m).EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
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

// TestEstimateActivationElementsTracksTape holds the estimate within
// ±10% of what a forward tape stores, with and without LayerNorm, on the
// ring and on a multigraph with repeated endpoints and self-loops.
func TestEstimateActivationElementsTracksTape(t *testing.T) {
	for _, layerNorm := range []bool{false, true} {
		cfg := Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 16, Steps: 3, LayerNorm: layerNorm}
		m := New(cfg, rng.New(9))
		rs, rd, rx, ry := ring(rng.New(10), 40, cfg)
		gs, gd, gx, gy := randomGraph(rng.New(11), 23, 71, cfg)
		for _, g := range []struct {
			name     string
			src, dst []int
			x, y     *tensor.Dense
		}{{"ring", rs, rd, rx, ry}, {"multigraph", gs, gd, gx, gy}} {
			tp := autograd.NewTapeArena(nil)
			m.Forward(tp, g.src, g.dst, g.x, g.y)
			actual := tp.ActivationElements()
			est := EstimateActivationElements(cfg, g.x.Rows(), len(g.src))
			if ratio := float64(est) / float64(actual); ratio < 0.9 || ratio > 1.1 {
				t.Fatalf("%s, LayerNorm %v: estimate %d vs actual %d (ratio %v) outside [0.9, 1.1]",
					g.name, layerNorm, est, actual, ratio)
			}
		}
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
	tp := autograd.NewTapeArena(nil)
	m.Forward(tp, []int{0, 1}, []int{1, 0}, tensor.New(2, 3), tensor.New(5, 2))
}

// concatMLP is nn.MLP.ForwardSegs over a materialised input, composed
// from the unfused tape ops: MatMul, AddBias, ReLU and LayerNorm nodes
// per layer.
func concatMLP(t *autograd.Tape, m *nn.MLP, x *autograd.Node) *autograd.Node {
	ps, nl := m.Params(), m.NumLayers()
	h := x
	for i := 0; ; i++ {
		h = t.AddBias(t.MatMul(h, t.Use(ps[2*i])), t.Use(ps[2*i+1]))
		if i == nl-1 {
			return h
		}
		h = t.ReLU(h)
		if len(ps) > 2*nl { // the LayerNorm gains and biases follow the linear layers
			h = t.LayerNorm(h, t.Use(ps[2*nl+2*i]), t.Use(ps[2*nl+2*i+1]), 1e-5)
		}
	}
}

// concatForward is Model.Forward in the concat formulation: every step
// builds X' = [Xl ‖ X0], Y' = [Yl ‖ Y0], the [E × 6H] message input from
// two materialised gathers and the [V × 4H] node input. The dst gather
// is recorded before the src one so that backward reaches X' through
// src first, as the segment order of Linear has it.
func concatForward(t *autograd.Tape, m *Model, src, dst []int, x, y *tensor.Dense) *autograd.Node {
	n := x.Rows()
	x0 := concatMLP(t, m.nodeEncoder, t.Constant(x))
	y0 := concatMLP(t, m.edgeEncoder, t.Constant(y))
	xl, yl := x0, y0
	for l := 0; l < m.cfg.Steps; l++ {
		xc := t.ConcatCols(xl, x0)
		yc := t.ConcatCols(yl, y0)
		gdst := t.GatherRows(xc, dst)
		yl = concatMLP(t, m.edgeNets[l], t.ConcatCols(yc, t.GatherRows(xc, src), gdst))
		if l == m.cfg.Steps-1 {
			break
		}
		msrc := t.AggregateRows(yl, src, n)
		mdst := t.AggregateRows(yl, dst, n)
		xl = concatMLP(t, m.nodeNets[l], t.ConcatCols(msrc, mdst, xc))
	}
	return concatMLP(t, m.head, yl)
}

// TestForwardMatchesConcatFormulationBitwise is the differential test of
// the segmented training forward: loss and every parameter gradient are
// Float64bits-equal to the concat formulation's, with LayerNorm off and
// on, at every intra-op worker count. Hidden 18 puts every backward GEMM
// on its AVX tiles and their remainders, and the multigraph has repeated
// endpoints and self-loops.
func TestForwardMatchesConcatFormulationBitwise(t *testing.T) {
	for _, layerNorm := range []bool{false, true} {
		cfg := Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 18, Steps: 3, LayerNorm: layerNorm}
		m := New(cfg, rng.New(21))
		jitter(m, 22)
		src, dst, x, y := randomGraph(rng.New(23), 19, 53, cfg)
		labels := make([]float64, len(src))
		for i := range labels {
			labels[i] = float64(i % 3 % 2)
		}
		step := func(tp *autograd.Tape, forward func(*autograd.Tape) *autograd.Node) (float64, [][]float64) {
			for _, p := range m.Params() {
				p.ZeroGrad()
			}
			loss := tp.BCEWithLogitsSum(forward(tp), labels, 1.5)
			tp.Backward(loss)
			var grads [][]float64
			for _, p := range m.Params() {
				grads = append(grads, append([]float64(nil), p.Grad.Data()...))
			}
			return loss.Value.At(0, 0), grads
		}
		wantLoss, want := step(autograd.NewTapeArena(nil), func(tp *autograd.Tape) *autograd.Node {
			return concatForward(tp, m, src, dst, x, y)
		})
		for _, w := range []int{1, 2, 4, 7} {
			arena := workspace.NewArena()
			tp := autograd.NewTapeArena(arena)
			tp.SetKernels(kernels.Context{Workers: w})
			gotLoss, got := step(tp, func(tp *autograd.Tape) *autograd.Node {
				return m.Forward(tp, src, dst, x, y)
			})
			arena.Reset()
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Fatalf("LayerNorm %v, %d workers: loss %v, concat formulation %v", layerNorm, w, gotLoss, wantLoss)
			}
			for i, p := range m.Params() {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("LayerNorm %v, %d workers: %s gradient element %d is %v, concat formulation %v",
							layerNorm, w, p.Name, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}
