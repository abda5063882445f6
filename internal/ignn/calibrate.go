package ignn

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// QuantScales bundles every calibrated activation scale of the
// Interaction GNN: one table per sub-network (input scale per linear
// layer) plus, per non-final message-passing step, the range of the
// edge messages entering the aggregation. Produced by a Calibrator;
// persisted in checkpoint v4.
type QuantScales struct {
	NodeEnc  []float32
	EdgeEnc  []float32
	EdgeNets [][]float32 // Steps entries
	NodeNets [][]float32 // Steps-1 entries
	Head     []float32
	Agg      []float32 // Steps-1 entries: message scale into aggregation
}

// Calibrator records the GNN's activation ranges for checkpoint v4: it
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
