// Package nn provides the neural-network building blocks of the pipeline:
// linear layers, multi-layer perceptrons (Linear + ReLU per hidden layer,
// the MLP block used throughout Exa.TrkX/acorn), optimizers, and parameter
// utilities used by distributed data parallelism (gradient flattening for
// the coalesced all-reduce, replica cloning, and averaging).
package nn

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/rng"
	"repro/internal/tensor"
)

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
	In     int   // input feature width
	Hidden []int // hidden layer widths (one entry per hidden layer)
	Out    int   // output width
}

// MLP is a multi-layer perceptron: Linear + ReLU per hidden layer, then a
// final Linear with no activation.
type MLP struct {
	layers []*Linear
}

// NewMLP builds an MLP from cfg with deterministic initialization from r.
func NewMLP(r *rng.Rand, name string, cfg MLPConfig) *MLP {
	if cfg.In <= 0 || cfg.Out <= 0 {
		panic(fmt.Sprintf("nn: MLP %q needs positive In/Out, got %d/%d", name, cfg.In, cfg.Out))
	}
	m := &MLP{}
	prev := cfg.In
	for i, h := range cfg.Hidden {
		m.layers = append(m.layers, NewLinear(r, fmt.Sprintf("%s.l%d", name, i), prev, h))
		prev = h
	}
	m.layers = append(m.layers, NewLinear(r, fmt.Sprintf("%s.out", name), prev, cfg.Out))
	return m
}

// ForwardSegs runs the MLP on the tape over the column concatenation of
// segs, which is never built: the first layer reads the segments where
// they lie (see autograd.Tape.Linear). Every layer is one Linear op; a
// hidden layer's bias and ReLU run in its GEMM's store. Losses and
// gradients are bitwise those of the unfused concat → MatMul → AddBias →
// ReLU chain.
func (m *MLP) ForwardSegs(t *autograd.Tape, segs ...autograd.Seg) *autograd.Node {
	last := len(m.layers) - 1
	for _, l := range m.layers[:last] {
		segs = []autograd.Seg{{N: t.Linear(t.Use(l.W), t.Use(l.B), true, segs...)}}
	}
	l := m.layers[last]
	return t.Linear(t.Use(l.W), t.Use(l.B), false, segs...)
}

// Params returns all trainable parameters in a stable order.
func (m *MLP) Params() []*autograd.Param {
	var ps []*autograd.Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
