package ignn

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Inference is the precision-generic, tape-free forward pass of a
// trained Interaction GNN — the stage-4 serving path. Construction
// converts every MLP's float64 weights to T once; EdgeScoresCtx then
// runs Algorithm 1 (encoders, L message-passing steps with
// concatenation residuals, incidence-SpMM aggregation, edge head)
// entirely in T, touching half the bytes at float32. The float64
// instantiation performs exactly the arithmetic of Model.EdgeScoresCtx
// in the same kernel order, so its scores are bitwise identical.
// Immutable and safe for concurrent use.
type Inference[T fp.Float] struct {
	cfg         Config
	nodeEncoder *nn.MLPInference[T]
	edgeEncoder *nn.MLPInference[T]
	edgeNets    []*nn.MLPInference[T]
	nodeNets    []*nn.MLPInference[T]
	head        *nn.MLPInference[T]
}

// NewInference snapshots m's trained weights at precision T.
func NewInference[T fp.Float](m *Model) *Inference[T] {
	inf := &Inference[T]{
		cfg:         m.cfg,
		nodeEncoder: nn.NewMLPInference[T](m.nodeEncoder),
		edgeEncoder: nn.NewMLPInference[T](m.edgeEncoder),
		head:        nn.NewMLPInference[T](m.head),
	}
	for _, e := range m.edgeNets {
		inf.edgeNets = append(inf.edgeNets, nn.NewMLPInference[T](e))
	}
	for _, n := range m.nodeNets {
		inf.nodeNets = append(inf.nodeNets, nn.NewMLPInference[T](n))
	}
	return inf
}

// Config returns the model configuration.
func (inf *Inference[T]) Config() Config { return inf.cfg }

// EdgeScoresCtx runs inference on graph (src, dst) with node features x
// and edge features y (already in T) and returns the per-edge sigmoid
// scores as float64 — the boundary back into the threshold/metric
// domain. Activations borrow from the arena and are released before
// returning; a nil arena falls back to the heap.
func (inf *Inference[T]) EdgeScoresCtx(kc kernels.Context, arena *workspace.Arena, src, dst []int, x, y *tensor.Matrix[T]) []float64 {
	if len(src) != len(dst) {
		panic("ignn: src/dst length mismatch")
	}
	if y.Rows() != len(src) {
		panic(fmt.Sprintf("ignn: %d edges but %d edge-feature rows", len(src), y.Rows()))
	}
	if arena != nil {
		mark := arena.Checkpoint()
		defer arena.ResetTo(mark)
	}
	n := x.Rows()
	h := inf.cfg.Hidden

	x0 := inf.nodeEncoder.Forward(kc, arena, x)
	y0 := inf.edgeEncoder.Forward(kc, arena, y)
	xl, yl := x0, y0
	for l := 0; l < inf.cfg.Steps; l++ {
		// Concatenation residuals with the initial encodings.
		xc := tensor.NewFromOf[T](arena, n, 2*h)
		tensor.ConcatColsIntoCtx(kc, xc, xl, x0)
		yc := tensor.NewFromOf[T](arena, len(src), 2*h)
		tensor.ConcatColsIntoCtx(kc, yc, yl, y0)
		// MSG: one fused gather+concat builds [Y' ‖ X'src ‖ X'dst].
		msgIn := tensor.NewFromOf[T](arena, len(src), 6*h)
		tensor.GatherConcat3IntoCtx(kc, msgIn, yc, nil, xc, src, xc, dst)
		yl = inf.edgeNets[l].Forward(kc, arena, msgIn)
		if l == inf.cfg.Steps-1 {
			break // final X update is unused by the edge head
		}
		// AGG: incidence-SpMM aggregation at both endpoints (bitwise
		// equal to the serial scatter-add; see sparse.IncidenceInto).
		msrc := aggregateRows(kc, arena, yl, src, n)
		mdst := aggregateRows(kc, arena, yl, dst, n)
		nodeIn := tensor.NewFromOf[T](arena, n, 4*h)
		tensor.ConcatColsIntoCtx(kc, nodeIn, msrc, mdst, xc)
		xl = inf.nodeNets[l].Forward(kc, arena, nodeIn)
	}
	logits := inf.head.Forward(kc, arena, yl)
	out := make([]float64, len(src))
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

// aggregateRows computes out[v] = Σ_{e: idx[e]=v} x[e] as an incidence
// SpMM — the same forward the autograd tape's AggregateRows runs.
func aggregateRows[T fp.Float](kc kernels.Context, arena *workspace.Arena, x *tensor.Matrix[T], idx []int, outRows int) *tensor.Matrix[T] {
	m := len(idx)
	s := &sparse.CSROf[T]{
		RowPtr: arenaInt(arena, outRows+1),
		ColIdx: arenaInt(arena, m),
		Vals:   arenaFloat[T](arena, m),
	}
	sparse.IncidenceInto(s, outRows, idx)
	v := tensor.NewFromOf[T](arena, outRows, x.Cols())
	sparse.SpMMIntoCtx(kc, v, s, x)
	return v
}

func arenaInt(a *workspace.Arena, n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.Int(n)
}

func arenaFloat[T fp.Float](a *workspace.Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	return workspace.Float[T](a, n)
}
