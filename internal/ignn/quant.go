package ignn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// QuantScales bundles every calibrated activation scale the quantized
// Interaction GNN needs: one table per sub-network (input scale per
// linear layer) plus, per non-final message-passing step, the scale the
// edge messages are quantized at before the incidence-SpMM aggregation.
// Produced by a Calibrator; persisted in checkpoint v4.
type QuantScales struct {
	NodeEnc  []float32
	EdgeEnc  []float32
	EdgeNets [][]float32 // Steps entries
	NodeNets [][]float32 // Steps-1 entries
	Head     []float32
	Agg      []float32 // Steps-1 entries: message scale into aggregation
}

// Quantized is the int8 forward pass of a trained Interaction GNN. The
// encoders, edge networks, and head quantize internally (float32 in,
// float32 out); the node-update input never exists in float32 — the
// aggregation requantizes directly to the node network's input scale
// and the [Msrc ‖ Mdst ‖ X'] assembly concatenates int8 payloads.
// Immutable and safe for concurrent use.
type Quantized struct {
	cfg         Config
	nodeEncoder *nn.MLPQuant
	edgeEncoder *nn.MLPQuant
	edgeNets    []*nn.MLPQuant
	nodeNets    []*nn.MLPQuant
	head        *nn.MLPQuant
	agg         []float32
}

// NewQuantized snapshots m's trained weights at int8 under the given
// calibrated scales. Table counts must match the configuration.
func NewQuantized(m *Model, sc QuantScales) (*Quantized, error) {
	steps := m.cfg.Steps
	if len(sc.EdgeNets) != steps || len(sc.NodeNets) != steps-1 || len(sc.Agg) != steps-1 {
		return nil, fmt.Errorf("ignn: quant scales for %d/%d edge nets, %d/%d node nets, %d/%d aggregations",
			len(sc.EdgeNets), steps, len(sc.NodeNets), steps-1, len(sc.Agg), steps-1)
	}
	for l, s := range sc.Agg {
		if !(s > 0) || math.IsInf(float64(s), 0) {
			return nil, fmt.Errorf("ignn: aggregation scale %d is %v", l, s)
		}
	}
	q := &Quantized{cfg: m.cfg, agg: append([]float32(nil), sc.Agg...)}
	var err error
	if q.nodeEncoder, err = nn.NewMLPQuant(m.nodeEncoder, sc.NodeEnc); err != nil {
		return nil, fmt.Errorf("ignn: node encoder: %w", err)
	}
	if q.edgeEncoder, err = nn.NewMLPQuant(m.edgeEncoder, sc.EdgeEnc); err != nil {
		return nil, fmt.Errorf("ignn: edge encoder: %w", err)
	}
	for l, e := range m.edgeNets {
		mq, err := nn.NewMLPQuant(e, sc.EdgeNets[l])
		if err != nil {
			return nil, fmt.Errorf("ignn: edge net %d: %w", l, err)
		}
		q.edgeNets = append(q.edgeNets, mq)
	}
	for l, nnet := range m.nodeNets {
		mq, err := nn.NewMLPQuant(nnet, sc.NodeNets[l])
		if err != nil {
			return nil, fmt.Errorf("ignn: node net %d: %w", l, err)
		}
		q.nodeNets = append(q.nodeNets, mq)
	}
	if q.head, err = nn.NewMLPQuant(m.head, sc.Head); err != nil {
		return nil, fmt.Errorf("ignn: head: %w", err)
	}
	return q, nil
}

// Config returns the model configuration.
func (q *Quantized) Config() Config { return q.cfg }

// Scales returns the calibrated scale tables (copies) for export.
func (q *Quantized) Scales() QuantScales {
	sc := QuantScales{
		NodeEnc: q.nodeEncoder.ActScales(),
		EdgeEnc: q.edgeEncoder.ActScales(),
		Head:    q.head.ActScales(),
		Agg:     append([]float32(nil), q.agg...),
	}
	for _, e := range q.edgeNets {
		sc.EdgeNets = append(sc.EdgeNets, e.ActScales())
	}
	for _, n := range q.nodeNets {
		sc.NodeNets = append(sc.NodeNets, n.ActScales())
	}
	return sc
}

// EdgeScoresCtx runs quantized inference on graph (src, dst) with
// float32 node features x and edge features y, returning per-edge
// sigmoid scores as float64. Same dataflow as Inference.EdgeScoresCtx;
// the AGG→node-update stretch runs entirely in int8: messages quantize
// once at the calibrated aggregation scale, the incidence-SpMM
// requantizes straight to the node network's input scale, and the
// network consumes the int8 concat without a float32 intermediate.
func (q *Quantized) EdgeScoresCtx(kc kernels.Context, arena *workspace.Arena, src, dst []int, x, y *tensor.Matrix[float32]) []float64 {
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
	h := q.cfg.Hidden

	x0 := q.nodeEncoder.Forward(kc, arena, x)
	y0 := q.edgeEncoder.Forward(kc, arena, y)
	xl, yl := x0, y0
	for l := 0; l < q.cfg.Steps; l++ {
		xc := tensor.NewFromOf[float32](arena, n, 2*h)
		tensor.ConcatColsIntoCtx(kc, xc, xl, x0)
		yc := tensor.NewFromOf[float32](arena, len(src), 2*h)
		tensor.ConcatColsIntoCtx(kc, yc, yl, y0)
		msgIn := tensor.NewFromOf[float32](arena, len(src), 6*h)
		tensor.GatherConcat3IntoCtx(kc, msgIn, yc, nil, xc, src, xc, dst)
		yl = q.edgeNets[l].Forward(kc, arena, msgIn)
		if l == q.cfg.Steps-1 {
			break // final X update is unused by the edge head
		}
		ylq := tensor.NewQMatFrom(arena, len(src), h, q.agg[l])
		tensor.QuantizeInto(kc, ylq, yl, q.agg[l])
		nodeScale := q.nodeNets[l].InScale()
		msrc := q.aggregateQ(kc, arena, ylq, src, n, nodeScale)
		mdst := q.aggregateQ(kc, arena, ylq, dst, n, nodeScale)
		xcq := tensor.NewQMatFrom(arena, n, 2*h, nodeScale)
		tensor.QuantizeInto(kc, xcq, xc, nodeScale)
		nodeIn := tensor.NewQMatFrom(arena, n, 4*h, nodeScale)
		tensor.QConcatColsInto(kc, nodeIn, msrc, mdst, xcq)
		xl = q.nodeNets[l].ForwardQ(kc, arena, nodeIn)
	}
	logits := q.head.Forward(kc, arena, yl)
	out := make([]float64, len(src))
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

// aggregateQ is aggregateRows in int8: the implicit-ones incidence
// matrix never materializes a value stream, products accumulate in
// int32, and the epilogue requantizes directly to outScale.
func (q *Quantized) aggregateQ(kc kernels.Context, arena *workspace.Arena, x *tensor.QMat, idx []int, outRows int, outScale float32) *tensor.QMat {
	m := len(idx)
	s := &sparse.QCSR{
		RowPtr: arenaInt(arena, outRows+1),
		ColIdx: arenaInt(arena, m),
	}
	sparse.QIncidenceInto(s, outRows, idx)
	v := tensor.NewQMatFrom(arena, outRows, x.Cols(), outScale)
	sparse.QSpMMQuantInto(kc, v, s, x, outScale)
	return v
}

// Calibrator records the activation ranges the quantized GNN needs: it
// replays the float32 inference dataflow over representative graphs,
// tracking per-linear-layer input ranges in every sub-network plus the
// message range entering each aggregation.
type Calibrator struct {
	m           *Model
	nodeEncoder *nn.MLPCalibrator
	edgeEncoder *nn.MLPCalibrator
	edgeNets    []*nn.MLPCalibrator
	nodeNets    []*nn.MLPCalibrator
	head        *nn.MLPCalibrator
	aggMax      []float64
}

// NewCalibrator builds a calibrator over m's current weights.
func NewCalibrator(m *Model) *Calibrator {
	c := &Calibrator{
		m:           m,
		nodeEncoder: nn.NewMLPCalibrator(m.nodeEncoder),
		edgeEncoder: nn.NewMLPCalibrator(m.edgeEncoder),
		head:        nn.NewMLPCalibrator(m.head),
		aggMax:      make([]float64, m.cfg.Steps-1),
	}
	for _, e := range m.edgeNets {
		c.edgeNets = append(c.edgeNets, nn.NewMLPCalibrator(e))
	}
	for _, n := range m.nodeNets {
		c.nodeNets = append(c.nodeNets, nn.NewMLPCalibrator(n))
	}
	return c
}

// Observe runs the float32 forward on one graph, recording ranges, and
// returns the per-edge scores.
func (c *Calibrator) Observe(kc kernels.Context, arena *workspace.Arena, src, dst []int, x, y *tensor.Matrix[float32]) []float64 {
	if arena != nil {
		mark := arena.Checkpoint()
		defer arena.ResetTo(mark)
	}
	n := x.Rows()
	h := c.m.cfg.Hidden
	x0 := c.nodeEncoder.Observe(kc, arena, x)
	y0 := c.edgeEncoder.Observe(kc, arena, y)
	xl, yl := x0, y0
	for l := 0; l < c.m.cfg.Steps; l++ {
		xc := tensor.NewFromOf[float32](arena, n, 2*h)
		tensor.ConcatColsIntoCtx(kc, xc, xl, x0)
		yc := tensor.NewFromOf[float32](arena, len(src), 2*h)
		tensor.ConcatColsIntoCtx(kc, yc, yl, y0)
		msgIn := tensor.NewFromOf[float32](arena, len(src), 6*h)
		tensor.GatherConcat3IntoCtx(kc, msgIn, yc, nil, xc, src, xc, dst)
		yl = c.edgeNets[l].Observe(kc, arena, msgIn)
		if l == c.m.cfg.Steps-1 {
			break
		}
		worst := c.aggMax[l]
		for _, v := range yl.Data() {
			if a := math.Abs(float64(v)); a > worst {
				worst = a
			}
		}
		c.aggMax[l] = worst
		msrc := aggregateRows(kc, arena, yl, src, n)
		mdst := aggregateRows(kc, arena, yl, dst, n)
		nodeIn := tensor.NewFromOf[float32](arena, n, 4*h)
		tensor.ConcatColsIntoCtx(kc, nodeIn, msrc, mdst, xc)
		xl = c.nodeNets[l].Observe(kc, arena, nodeIn)
	}
	logits := c.head.Observe(kc, arena, yl)
	out := make([]float64, len(src))
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

// Scales returns the calibrated scale tables.
func (c *Calibrator) Scales() QuantScales {
	sc := QuantScales{
		NodeEnc: c.nodeEncoder.Scales(),
		EdgeEnc: c.edgeEncoder.Scales(),
		Head:    c.head.Scales(),
		Agg:     make([]float32, len(c.aggMax)),
	}
	for l, m := range c.aggMax {
		if m == 0 {
			sc.Agg[l] = 1
			continue
		}
		sc.Agg[l] = float32(m / 127)
	}
	for _, e := range c.edgeNets {
		sc.EdgeNets = append(sc.EdgeNets, e.Scales())
	}
	for _, n := range c.nodeNets {
		sc.NodeNets = append(sc.NodeNets, n.Scales())
	}
	return sc
}

// Quantize finalizes the calibration into a Quantized model.
func (c *Calibrator) Quantize() (*Quantized, error) {
	return NewQuantized(c.m, c.Scales())
}
