// Package ignn implements the Interaction GNN (Battaglia et al. 2016) as
// used by the Exa.TrkX pipeline and specified in Algorithm 1 of the paper:
// node/edge encoders, L message-passing layers with concatenation
// residuals to the initial encodings, sum aggregation of edge messages to
// both endpoints, and an edge-classification head. Every MLP is distinct
// per layer, as the paper notes.
package ignn

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config describes the model.
type Config struct {
	NodeFeatures int // input per-node feature width
	EdgeFeatures int // input per-edge feature width
	Hidden       int // hidden width f (paper: 64)
	Steps        int // message-passing iterations L (paper: 8)
	LayerNorm    bool
}

// Model is an Interaction GNN for binary edge classification.
type Model struct {
	cfg         Config
	nodeEncoder *nn.MLP   // X → X0
	edgeEncoder *nn.MLP   // Y → Y0
	edgeNets    []*nn.MLP // per step: [Y' X'src X'dst] → Y_{l+1}
	nodeNets    []*nn.MLP // per step: [Msrc Mdst X'] → X_{l+1}
	head        *nn.MLP   // Y_L → logit
}

// New builds a model with deterministic initialization.
func New(cfg Config, r *rng.Rand) *Model {
	if cfg.Steps < 1 {
		panic(fmt.Sprintf("ignn: Steps must be ≥1, got %d", cfg.Steps))
	}
	h := cfg.Hidden
	m := &Model{cfg: cfg}
	m.nodeEncoder = nn.NewMLP(r, "ignn.nodeEnc", nn.MLPConfig{
		In: cfg.NodeFeatures, Hidden: []int{h}, Out: h, Activation: nn.ReLU, LayerNorm: cfg.LayerNorm,
	})
	m.edgeEncoder = nn.NewMLP(r, "ignn.edgeEnc", nn.MLPConfig{
		In: cfg.EdgeFeatures, Hidden: []int{h}, Out: h, Activation: nn.ReLU, LayerNorm: cfg.LayerNorm,
	})
	for l := 0; l < cfg.Steps; l++ {
		// X' and Y' are [current ‖ initial] → width 2h each.
		m.edgeNets = append(m.edgeNets, nn.NewMLP(r, fmt.Sprintf("ignn.edge%d", l), nn.MLPConfig{
			In: 6 * h, Hidden: []int{h}, Out: h, Activation: nn.ReLU, LayerNorm: cfg.LayerNorm,
		}))
		if l < cfg.Steps-1 {
			// Algorithm 1 computes X_{l+1} on the final iteration too, but
			// the classifier consumes only Y_L, so that update is dead
			// weight; we omit it and save its compute and activations.
			m.nodeNets = append(m.nodeNets, nn.NewMLP(r, fmt.Sprintf("ignn.node%d", l), nn.MLPConfig{
				In: 4 * h, Hidden: []int{h}, Out: h, Activation: nn.ReLU, LayerNorm: cfg.LayerNorm,
			}))
		}
	}
	m.head = nn.NewMLP(r, "ignn.head", nn.MLPConfig{
		In: h, Hidden: []int{h}, Out: 1, Activation: nn.ReLU,
	})
	return m
}

// Replicas builds p identically initialized models — one replica per DDP
// rank. Every replica is constructed from the same derived seed, so their
// parameters agree bit-for-bit before the first broadcast.
func Replicas(cfg Config, seed uint64, p int) []*Model {
	out := make([]*Model, p)
	for i := range out {
		out[i] = New(cfg, rng.New(seed))
	}
	return out
}

// Params returns every trainable parameter in a stable order — the order
// matters for DDP gradient synchronization across replicas.
func (m *Model) Params() []*autograd.Param {
	var ps []*autograd.Param
	ps = append(ps, m.nodeEncoder.Params()...)
	ps = append(ps, m.edgeEncoder.Params()...)
	for l := range m.edgeNets {
		ps = append(ps, m.edgeNets[l].Params()...)
		if l < len(m.nodeNets) {
			ps = append(ps, m.nodeNets[l].Params()...)
		}
	}
	ps = append(ps, m.head.Params()...)
	return ps
}

// Forward runs Algorithm 1 on the tape: graph edges (src, dst), node
// features X (n×NodeFeatures), edge features Y (m×EdgeFeatures). Returns
// per-edge logits (m×1). Message passing treats edges as directed
// src→dst but aggregates messages at both endpoints, matching the
// REDUCTION over A.rows and A.cols in the paper.
func (m *Model) Forward(t *autograd.Tape, src, dst []int, x, y *tensor.Dense) *autograd.Node {
	if len(src) != len(dst) {
		panic("ignn: src/dst length mismatch")
	}
	if y.Rows() != len(src) {
		panic(fmt.Sprintf("ignn: %d edges but %d edge-feature rows", len(src), y.Rows()))
	}
	n := x.Rows()
	type seg = autograd.Seg

	x0 := m.nodeEncoder.ForwardSegs(t, seg{N: t.Constant(x)})
	y0 := m.edgeEncoder.ForwardSegs(t, seg{N: t.Constant(y)})
	xl, yl := x0, y0
	for l := 0; l < m.cfg.Steps; l++ {
		// The concatenation residuals X' = [Xl ‖ X0] and Y' = [Yl ‖ Y0]
		// are never built: the networks read their halves as segments.
		// X0's gradient gets the same grouping it had when X' was a
		// buffer: this step's three reads of X0 (node net, both gathers)
		// sum in xr before reaching X0, and at step 0, where Xl is X0
		// too, Xl's reads sum in an identity of their own, recorded after
		// xr so that backward adds them into X0 first.
		xr := t.Identity(x0)
		if l == 0 {
			xl = t.Identity(x0)
		}
		// MSG: per-edge update from [Y' ‖ X'[src] ‖ X'[dst]].
		yl = m.edgeNets[l].ForwardSegs(t,
			seg{N: yl}, seg{N: y0},
			seg{N: xl, Idx: src}, seg{N: xr, Idx: src},
			seg{N: xl, Idx: dst}, seg{N: xr, Idx: dst}) // m × h
		if l == m.cfg.Steps-1 {
			break // final X update is unused by the edge head
		}
		// AGG: sum messages into rows (sources) and cols (destinations),
		// as row-parallel incidence SpMMs (bitwise equal to the serial
		// scatter-add, see autograd.AggregateRows).
		msrc := t.AggregateRows(yl, src, n)
		mdst := t.AggregateRows(yl, dst, n)
		// Node update from [Msrc ‖ Mdst ‖ X'].
		xl = m.nodeNets[l].ForwardSegs(t, seg{N: msrc}, seg{N: mdst}, seg{N: xl}, seg{N: xr}) // n × h
	}
	return m.head.ForwardSegs(t, seg{N: yl})
}

// EstimateActivationElements predicts the number of float64 elements the
// tape keeps resident to train a graph with n vertices and mEdges edges
// — the quantity the paper's full-graph trainer compares against GPU
// memory before deciding to skip a graph. It counts what Forward records
// (Tape.ActivationElements, which leaves out parameters and Identity
// views): the two input matrices, and per MLP the output of every layer,
// plus each hidden layer's LayerNorm output when cfg.LayerNorm is set.
// Bias and ReLU run inside each layer's GEMM and the concatenations are
// read as segments, so nothing else is stored; per step that is the edge
// network's activations over E rows and, on every step but the last,
// Msrc, Mdst and the node network's activations over V rows. Backward
// scratch, gradients and optimizer state are not counted.
func EstimateActivationElements(cfg Config, n, mEdges int) int {
	h := cfg.Hidden
	// perRow is what a one-hidden-layer MLP with h-wide output stores per
	// input row: the hidden activation, its LayerNorm, the output.
	perRow := 2 * h
	if cfg.LayerNorm {
		perRow += h
	}
	inputs := n*cfg.NodeFeatures + mEdges*cfg.EdgeFeatures
	encoders := (n + mEdges) * perRow
	edgeSteps := cfg.Steps * mEdges * perRow
	nodeSteps := (cfg.Steps - 1) * n * (2*h + perRow)
	head := mEdges * (h + 1) // hidden + logits; the head has no LayerNorm
	return inputs + encoders + edgeSteps + nodeSteps + head
}
