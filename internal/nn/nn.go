// Package nn provides the neural-network building blocks of the pipeline:
// linear layers, multi-layer perceptrons with optional layer norm (the MLP
// block used throughout Exa.TrkX/acorn), optimizers, and parameter
// utilities used by distributed data parallelism (gradient flattening for
// the coalesced all-reduce, replica cloning, and averaging).
package nn

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Activation selects the nonlinearity used between MLP layers.
type Activation int

const (
	// ReLU is max(0,x) — the default in the acorn MLP blocks.
	ReLU Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// Sigmoid is the logistic function.
	Sigmoid
	// None applies no nonlinearity.
	None
)

// apply records a non-ReLU activation; ReLU runs in the Linear op's
// epilogue instead.
func (a Activation) apply(t *autograd.Tape, x *autograd.Node) *autograd.Node {
	switch a {
	case Tanh:
		return t.Tanh(x)
	case Sigmoid:
		return t.Sigmoid(x)
	case None:
		return x
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W, B *autograd.Param
}

// NewLinear creates a Xavier-initialized linear layer.
func NewLinear(r *rng.Rand, name string, in, out int) *Linear {
	return &Linear{
		W: autograd.NewParam(name+".W", tensor.XavierInit(r, in, out)),
		B: autograd.NewParam(name+".b", tensor.New(1, out)),
	}
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*autograd.Param { return []*autograd.Param{l.W, l.B} }

// MLPConfig describes an MLP block.
type MLPConfig struct {
	In         int   // input feature width
	Hidden     []int // hidden layer widths (one entry per hidden layer)
	Out        int   // output width
	Activation Activation
	LayerNorm  bool // layer norm after each hidden activation (acorn style)
}

// layerNormParams holds the gain/bias pair for one LayerNorm.
type layerNormParams struct {
	Gain, Bias *autograd.Param
}

// MLP is a multi-layer perceptron: Linear (+Act (+LayerNorm)) per hidden
// layer, then a final Linear with no activation.
type MLP struct {
	cfg    MLPConfig
	layers []*Linear
	norms  []*layerNormParams
}

// NewMLP builds an MLP from cfg with deterministic initialization from r.
func NewMLP(r *rng.Rand, name string, cfg MLPConfig) *MLP {
	if cfg.In <= 0 || cfg.Out <= 0 {
		panic(fmt.Sprintf("nn: MLP %q needs positive In/Out, got %d/%d", name, cfg.In, cfg.Out))
	}
	m := &MLP{cfg: cfg}
	prev := cfg.In
	for i, h := range cfg.Hidden {
		m.layers = append(m.layers, NewLinear(r, fmt.Sprintf("%s.l%d", name, i), prev, h))
		if cfg.LayerNorm {
			gain := tensor.New(1, h)
			gain.Fill(1)
			m.norms = append(m.norms, &layerNormParams{
				Gain: autograd.NewParam(fmt.Sprintf("%s.ln%d.g", name, i), gain),
				Bias: autograd.NewParam(fmt.Sprintf("%s.ln%d.b", name, i), tensor.New(1, h)),
			})
		}
		prev = h
	}
	m.layers = append(m.layers, NewLinear(r, fmt.Sprintf("%s.out", name), prev, cfg.Out))
	return m
}

// ForwardSegs runs the MLP on the tape over the column concatenation of
// segs, which is never built: the first layer reads the segments where
// they lie (see autograd.Tape.Linear). Every layer is one Linear op; with
// the (default) ReLU activation a hidden layer's bias and ReLU run in its
// GEMM's store. Losses and gradients are bitwise those of the unfused
// concat → MatMul → AddBias → ReLU chain.
func (m *MLP) ForwardSegs(t *autograd.Tape, segs ...autograd.Seg) *autograd.Node {
	h := m.layer(t, 0, segs...)
	for i := 1; i < len(m.layers); i++ {
		h = m.layer(t, i, autograd.Seg{N: h})
	}
	return h
}

// layer records layer i: its Linear and, for a hidden layer, the
// activation and the LayerNorm.
func (m *MLP) layer(t *autograd.Tape, i int, segs ...autograd.Seg) *autograd.Node {
	l := m.layers[i]
	if i == len(m.layers)-1 {
		return t.Linear(t.Use(l.W), t.Use(l.B), false, segs...)
	}
	relu := m.cfg.Activation == ReLU
	h := t.Linear(t.Use(l.W), t.Use(l.B), relu, segs...)
	if !relu {
		h = m.cfg.Activation.apply(t, h)
	}
	if m.cfg.LayerNorm {
		ln := m.norms[i]
		h = t.LayerNorm(h, t.Use(ln.Gain), t.Use(ln.Bias), 1e-5)
	}
	return h
}

// Params returns all trainable parameters in a stable order.
func (m *MLP) Params() []*autograd.Param {
	var ps []*autograd.Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	for _, n := range m.norms {
		ps = append(ps, n.Gain, n.Bias)
	}
	return ps
}
