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
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
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

	// inf is the tape-free forward over these parameters' own storage —
	// what EdgeScoresCtx runs; Forward on a tape is the training path.
	inf *Inference[float64]
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
	m.inf = NewInference[float64](m)
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

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

	x0 := m.nodeEncoder.Forward(t, t.Constant(x))
	y0 := m.edgeEncoder.Forward(t, t.Constant(y))
	xl, yl := x0, y0
	for l := 0; l < m.cfg.Steps; l++ {
		// Concatenation residuals with the initial encodings.
		xc := t.ConcatCols(xl, x0) // n × 2h
		yc := t.ConcatCols(yl, y0) // m × 2h
		// MSG: per-edge update from the edge state and both endpoints —
		// one fused gather+concat pass builds [Y' ‖ X'src ‖ X'dst].
		msgIn := t.GatherConcat3(yc, nil, xc, src, xc, dst)
		yl = m.edgeNets[l].Forward(t, msgIn) // m × h
		if l == m.cfg.Steps-1 {
			break // final X update is unused by the edge head
		}
		// AGG: sum messages into rows (sources) and cols (destinations),
		// as row-parallel incidence SpMMs (bitwise equal to the serial
		// scatter-add, see autograd.AggregateRows).
		msrc := t.AggregateRows(yl, src, n)
		mdst := t.AggregateRows(yl, dst, n)
		// Node update.
		xl = m.nodeNets[l].Forward(t, t.ConcatCols(msrc, mdst, xc)) // n × h
	}
	return m.head.Forward(t, yl)
}

// EdgeScoresCtx runs inference and returns the per-edge sigmoid scores
// under an explicit intra-op worker budget for the forward kernels.
// The forward pass's activations are borrowed from the arena's
// workspace pools and returned before the call completes, so
// steady-state inference reuses one warm buffer set instead of
// allocating per event; a nil arena falls back to heap allocation.
// Scores are bitwise identical at every budget; the engine passes each
// worker its share of the host so event-level and kernel-level
// parallelism compose. It runs the tape-free Inference[float64] view of
// the parameters, whose scores are bitwise those of Forward on a tape.
func (m *Model) EdgeScoresCtx(kc kernels.Context, arena *workspace.Arena, src, dst []int, x, y *tensor.Dense) []float64 {
	return m.inf.EdgeScoresCtx(kc, arena, src, dst, x, y)
}

// EstimateActivationElements predicts the number of float64 elements the
// tape must keep resident to train a graph with n vertices and mEdges
// edges — the quantity the paper's full-graph trainer compares against
// GPU memory before deciding to skip a graph. It follows Algorithm 1's
// stored outputs per step: Y_{l+1} (m×h), Msrc and Mdst (n×h each),
// X_{l+1} (n×h), plus the 2h-wide concatenations and MLP hidden
// activations that autograd retains.
func EstimateActivationElements(cfg Config, n, mEdges int) int {
	h := cfg.Hidden
	// Encoders: hidden + output for nodes and edges.
	enc := 2*n*h + 2*mEdges*h
	// Per step: xc (2nh) + yc (2mh) + msgIn (6mh) + edge hidden/out (2mh)
	// + msrc/mdst (2nh) + node in-concat (4nh) + node hidden/out (2nh).
	perStep := 10*n*h + 10*mEdges*h
	// Head: hidden + logits.
	head := mEdges*h + mEdges
	return enc + cfg.Steps*perStep + head
}
