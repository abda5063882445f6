package autograd

import (
	"fmt"
	"math"
)

// BCEWithLogits computes the mean binary cross-entropy between logits
// (m×1) and targets (length m, values in {0,1}), with positive examples
// weighted by posWeight (1 for no reweighting). It is numerically stable:
// loss_i = w_i * (max(z,0) - z*y + log(1+exp(-|z|))) with
// w_i = posWeight for y=1 and 1 for y=0, matching PyTorch's
// BCEWithLogitsLoss(pos_weight=...) up to the same mean reduction.
func (t *Tape) BCEWithLogits(logits *Node, targets []float64, posWeight float64) *Node {
	return t.bceWithLogits(logits, targets, posWeight, true)
}

// BCEWithLogitsSum is BCEWithLogits with sum reduction: the per-edge
// weighted losses are added but never divided by the count. The
// distributed trainer uses it so micro-block losses can be combined and
// normalized by the GLOBAL edge count in one canonical order — the mean
// of means over unevenly sized shards is both statistically wrong and
// dependent on the shard layout, which would break cross-rank-count
// bitwise reproducibility.
func (t *Tape) BCEWithLogitsSum(logits *Node, targets []float64, posWeight float64) *Node {
	return t.bceWithLogits(logits, targets, posWeight, false)
}

func (t *Tape) bceWithLogits(logits *Node, targets []float64, posWeight float64, mean bool) *Node {
	m := logits.Value.Rows()
	if logits.Value.Cols() != 1 || len(targets) != m {
		panic(fmt.Sprintf("autograd: BCEWithLogits wants m x 1 logits and m targets, got %dx%d and %d",
			logits.Value.Rows(), logits.Value.Cols(), len(targets)))
	}
	z := logits.Value.Data()
	total := 0.0
	for i, y := range targets {
		w := 1.0
		if y > 0.5 {
			w = posWeight
		}
		zi := z[i]
		l := math.Max(zi, 0) - zi*y + math.Log1p(math.Exp(-math.Abs(zi)))
		total += w * l
	}
	norm := 1.0
	if mean {
		norm = float64(m)
	}
	v := t.alloc(1, 1)
	v.Set(0, 0, total/norm)
	var out *Node
	out = t.newNode(v, logits.needGrad, func() {
		if !logits.needGrad {
			return
		}
		g := t.alloc(m, 1)
		gd := g.Data()
		scale := out.grad.At(0, 0) / norm
		for i, y := range targets {
			w := 1.0
			if y > 0.5 {
				w = posWeight
			}
			gd[i] = scale * w * (Logistic(z[i]) - y)
		}
		logits.accumOwned(g)
	})
	if !logits.needGrad {
		out.back = nil
	}
	return out
}

// HingePairLoss is the contrastive metric-learning loss used by the
// embedding stage, operating on squared pair distances d2 (m×1):
//
//	loss_i = y_i * d2_i + (1-y_i) * max(0, margin² - d2_i)
//
// Positive pairs (same track, y=1) are pulled together, negative pairs are
// pushed beyond the margin. Mean reduction.
func (t *Tape) HingePairLoss(d2 *Node, labels []float64, margin float64) *Node {
	m := d2.Value.Rows()
	if d2.Value.Cols() != 1 || len(labels) != m {
		panic("autograd: HingePairLoss wants m x 1 distances and m labels")
	}
	m2 := margin * margin
	d := d2.Value.Data()
	total := 0.0
	for i, y := range labels {
		if y > 0.5 {
			total += d[i]
		} else if d[i] < m2 {
			total += m2 - d[i]
		}
	}
	v := t.alloc(1, 1)
	v.Set(0, 0, total/float64(m))
	var out *Node
	out = t.newNode(v, d2.needGrad, func() {
		if !d2.needGrad {
			return
		}
		g := t.alloc(m, 1)
		gd := g.Data()
		scale := out.grad.At(0, 0) / float64(m)
		for i, y := range labels {
			if y > 0.5 {
				gd[i] = scale
			} else if d[i] < m2 {
				gd[i] = -scale
			}
		}
		d2.accumOwned(g)
	})
	if !d2.needGrad {
		out.back = nil
	}
	return out
}

// Logistic is the numerically stable logistic function 1/(1+e^-x): the
// loss's backward here and the serving scores (nn.SigmoidScore) share it,
// so a score and the loss it was trained under use the same arithmetic.
func Logistic(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
