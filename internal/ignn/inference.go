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
// trained Interaction GNN — the stage-4 serving path at every float
// precision. EdgeScoresCtx runs Algorithm 1 (encoders, L
// message-passing steps with concatenation residuals, incidence-SpMM
// aggregation, edge head) entirely in T, touching half the bytes at
// float32. The float64 instantiation is a view of the model's own
// parameters (see nn.MLPInference) and its scores are bitwise identical
// to Model.Forward on a tape, whose Linear ops run the same segmented
// GEMM over the same segments. The float32 instantiation converts the
// weights once, at construction. Safe for concurrent use while nothing
// writes the parameters.
type Inference[T fp.Float] struct {
	cfg         Config
	nodeEncoder *nn.MLPInference[T]
	edgeEncoder *nn.MLPInference[T]
	edgeNets    []*nn.MLPInference[T]
	nodeNets    []*nn.MLPInference[T]
	head        *nn.MLPInference[T]
}

// NewInference returns m's inference forward at precision T.
func NewInference[T fp.Float](m *Model) *Inference[T] {
	return newInference(m, nn.NewMLPInference[T])
}

// NewCalibration returns m's float32 inference forward with activation
// range recording on in every sub-network (see nn.NewMLPCalibration),
// for the int8 export's Scales. Its scores are bitwise those of
// NewInference[float32](m). Not safe for concurrent use.
func NewCalibration(m *Model) *Inference[float32] {
	return newInference(m, nn.NewMLPCalibration)
}

func newInference[T fp.Float](m *Model, mlp func(*nn.MLP) *nn.MLPInference[T]) *Inference[T] {
	inf := &Inference[T]{
		cfg:         m.cfg,
		nodeEncoder: mlp(m.nodeEncoder),
		edgeEncoder: mlp(m.edgeEncoder),
		head:        mlp(m.head),
	}
	for _, e := range m.edgeNets {
		inf.edgeNets = append(inf.edgeNets, mlp(e))
	}
	for _, n := range m.nodeNets {
		inf.nodeNets = append(inf.nodeNets, mlp(n))
	}
	return inf
}

// QuantScales bundles every activation scale of the Interaction GNN
// checkpoint v4 persists: one table per sub-network (input scale per
// linear layer) plus, per non-final message-passing step, the scale of
// the edge messages entering the aggregation.
type QuantScales struct {
	NodeEnc  []float32
	EdgeEnc  []float32
	EdgeNets [][]float32 // Steps entries
	NodeNets [][]float32 // Steps-1 entries
	Head     []float32
	Agg      []float32 // Steps-1 entries: message scale into aggregation
}

// Scales returns the activation scales a NewCalibration instance has
// recorded. The message entering step l's aggregation is edge network
// l's output, so Agg[l] is that network's output scale.
func (inf *Inference[T]) Scales() QuantScales {
	sc := QuantScales{
		NodeEnc: inf.nodeEncoder.Scales(),
		EdgeEnc: inf.edgeEncoder.Scales(),
		Head:    inf.head.Scales(),
		Agg:     make([]float32, len(inf.nodeNets)),
	}
	for l, e := range inf.edgeNets {
		sc.EdgeNets = append(sc.EdgeNets, e.Scales())
		if l < len(sc.Agg) {
			sc.Agg[l] = e.OutputScale()
		}
	}
	for _, n := range inf.nodeNets {
		sc.NodeNets = append(sc.NodeNets, n.Scales())
	}
	return sc
}

// EdgeScoresCtx runs inference on graph (src, dst) with node features x
// and edge features y (already in T) and returns the per-edge sigmoid
// scores as float64 — the boundary back into the threshold/metric
// domain. Activations borrow from the arena and are released before
// returning, so steady-state inference reuses one warm buffer set; a nil
// arena falls back to the heap. Scores are bitwise identical at every
// worker budget; the engine passes each worker its share of the host so
// event-level and kernel-level parallelism compose.
//
// Nothing transient is materialised: the edge network reads
// [Yl ‖ Y0 ‖ Xl[src] ‖ X0[src] ‖ Xl[dst] ‖ X0[dst]] and the node
// network [Msrc ‖ Mdst ‖ Xl ‖ X0] as GEMM segments, the two incidence
// matrices are built once, and the per-step activations are taken from
// the arena once and reused by every step — each kernel that writes
// them stores every element.
func (inf *Inference[T]) EdgeScoresCtx(kc kernels.Context, arena *workspace.Arena, src, dst []int, x, y *tensor.Matrix[T]) []float64 {
	if len(src) != len(dst) {
		panic("ignn: src/dst length mismatch")
	}
	if y.Rows() != len(src) {
		panic(fmt.Sprintf("ignn: %d edges but %d edge-feature rows", len(src), y.Rows()))
	}
	n, m, h := x.Rows(), len(src), inf.cfg.Hidden
	if m == 0 {
		// No edges, no scores — and a nil src could not say "gathered".
		return []float64{}
	}
	if arena != nil {
		mark := arena.Checkpoint()
		defer arena.ResetTo(mark)
	}
	type mat = tensor.Matrix[T]
	type seg = tensor.Seg[T]
	nodeMat := func() *mat { return tensor.NewFromOf[T](arena, n, h) }
	edgeMat := func() *mat { return tensor.NewFromOf[T](arena, m, h) }
	// One hidden-layer buffer per side serves every network on it.
	nodeHid, edgeHid := []*mat{nodeMat()}, []*mat{edgeMat()}

	x0, y0 := nodeMat(), edgeMat()
	inf.nodeEncoder.ForwardInto(kc, x0, nodeHid, seg{M: x})
	inf.edgeEncoder.ForwardInto(kc, y0, edgeHid, seg{M: y})

	// Step l reads state l and writes state l+1 into the buffer state
	// l-1 has vacated, so no network writes a matrix it reads.
	ybuf := [2]*mat{edgeMat()}
	var xbuf [2]*mat
	var msrc, mdst *mat
	var srcInc, dstInc *sparse.CSROf[T]
	if inf.cfg.Steps > 1 {
		ybuf[1] = edgeMat()
		xbuf = [2]*mat{nodeMat(), nodeMat()}
		msrc, mdst = nodeMat(), nodeMat()
		srcInc, dstInc = incidence[T](arena, src, n), incidence[T](arena, dst, n)
	}
	xl, yl := x0, y0
	for l := 0; l < inf.cfg.Steps; l++ {
		// MSG over [Y' ‖ X'src ‖ X'dst], where Y' = [Yl ‖ Y0] and
		// X' = [Xl ‖ X0] are the concatenation residuals.
		yn := ybuf[l%2]
		inf.edgeNets[l].ForwardInto(kc, yn, edgeHid,
			seg{M: yl}, seg{M: y0},
			seg{M: xl, Idx: src}, seg{M: x0, Idx: src},
			seg{M: xl, Idx: dst}, seg{M: x0, Idx: dst})
		yl = yn
		if l == inf.cfg.Steps-1 {
			break // final X update is unused by the edge head
		}
		// AGG: incidence-SpMM aggregation at both endpoints (bitwise
		// equal to the serial scatter-add; see sparse.IncidenceInto).
		sparse.SpMMIntoCtx(kc, msrc, srcInc, yl)
		sparse.SpMMIntoCtx(kc, mdst, dstInc, yl)
		xn := xbuf[l%2]
		inf.nodeNets[l].ForwardInto(kc, xn, nodeHid,
			seg{M: msrc}, seg{M: mdst}, seg{M: xl}, seg{M: x0})
		xl = xn
	}
	logits := tensor.NewFromOf[T](arena, m, 1)
	inf.head.ForwardInto(kc, logits, edgeHid, seg{M: yl})
	out := make([]float64, m)
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

// incidence builds the rows×len(idx) incidence matrix of idx (see
// sparse.IncidenceInto) in arena storage.
func incidence[T fp.Float](arena *workspace.Arena, idx []int, rows int) *sparse.CSROf[T] {
	s := &sparse.CSROf[T]{
		RowPtr: arenaInt(arena, rows+1),
		ColIdx: arenaInt(arena, len(idx)),
		Vals:   arenaFloat[T](arena, len(idx)),
	}
	return sparse.IncidenceInto(s, rows, idx)
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
