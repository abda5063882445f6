package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.AddInto(v, a.Value, b.Value)
	need := a.needGrad || b.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		if a.needGrad {
			a.accum(out.grad)
		}
		if b.needGrad {
			b.accum(out.grad)
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

// Identity returns a node that shares x's value. Its backward adds its
// gradient into x in one accumulation, so the contributions that reach
// x through it are summed among themselves first. That lets a caller
// keep a gradient's grouping when several consumers read x directly
// where they used to read a buffer built from it.
func (t *Tape) Identity(x *Node) *Node {
	var out *Node
	out = t.newNode(x.Value, x.needGrad, func() {
		x.accum(out.grad)
	})
	out.view = true
	if !x.needGrad {
		out.back = nil
	}
	return out
}

// Scale returns s*a.
func (t *Tape) Scale(s float64, a *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.ScaleInto(v, s, a.Value)
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(a.Value.Rows(), a.Value.Cols())
			tensor.ScaleInto(g, s, out.grad)
			a.accumOwned(g)
		}
	})
	if !a.needGrad {
		out.back = nil
	}
	return out
}

// Sub returns a-b.
func (t *Tape) Sub(a, b *Node) *Node {
	return t.Add(a, t.Scale(-1, b))
}

// Mul returns the elementwise product a*b.
func (t *Tape) Mul(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.MulInto(v, a.Value, b.Value)
	need := a.needGrad || b.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		if a.needGrad {
			g := t.alloc(a.Value.Rows(), a.Value.Cols())
			tensor.MulInto(g, out.grad, b.Value)
			a.accumOwned(g)
		}
		if b.needGrad {
			g := t.alloc(b.Value.Rows(), b.Value.Cols())
			tensor.MulInto(g, out.grad, a.Value)
			b.accumOwned(g)
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

// GatherRows selects rows of x at idx: out[i] = x[idx[i]].
// Backward scatter-adds the incoming gradient into x's rows.
func (t *Tape) GatherRows(x *Node, idx []int) *Node {
	v := t.alloc(len(idx), x.Value.Cols())
	tensor.GatherRowsIntoCtx(t.kc, v, x.Value, idx)
	var out *Node
	out = t.newNode(v, x.needGrad, func() {
		if x.needGrad {
			g := t.alloc(x.Value.Rows(), x.Value.Cols())
			tensor.ScatterAddRows(g, out.grad, idx)
			x.accumOwned(g)
		}
	})
	if !x.needGrad {
		out.back = nil
	}
	return out
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.ApplyInto(v, a.Value, sigmoid)
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(v.Rows(), v.Cols())
			vd, gd, og := v.Data(), g.Data(), out.grad.Data()
			for i := range gd {
				gd[i] = og[i] * vd[i] * (1 - vd[i])
			}
			a.accumOwned(g)
		}
	})
	if !a.needGrad {
		out.back = nil
	}
	return out
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.ApplyInto(v, a.Value, math.Tanh)
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(v.Rows(), v.Cols())
			vd, gd, og := v.Data(), g.Data(), out.grad.Data()
			for i := range gd {
				gd[i] = og[i] * (1 - vd[i]*vd[i])
			}
			a.accumOwned(g)
		}
	})
	if !a.needGrad {
		out.back = nil
	}
	return out
}

// RowSums reduces each row to its sum, producing an n×1 node.
func (t *Tape) RowSums(a *Node) *Node {
	v := t.alloc(a.Value.Rows(), 1)
	a.Value.RowSumsInto(v)
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(a.Value.Rows(), a.Value.Cols())
			og := out.grad.Data()
			for i := 0; i < g.Rows(); i++ {
				row := g.Row(i)
				for j := range row {
					row[j] = og[i]
				}
			}
			a.accumOwned(g)
		}
	})
	if !a.needGrad {
		out.back = nil
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies the learned 1×c gain and bias, matching the LayerNorm used
// inside the acorn MLP blocks.
func (t *Tape) LayerNorm(a, gain, bias *Node, eps float64) *Node {
	rows, cols := a.Value.Rows(), a.Value.Cols()
	if gain.Value.Rows() != 1 || gain.Value.Cols() != cols || bias.Value.Rows() != 1 || bias.Value.Cols() != cols {
		panic(fmt.Sprintf("autograd: LayerNorm gain/bias must be 1x%d", cols))
	}
	norm := t.alloc(rows, cols) // xhat
	v := t.alloc(rows, cols)
	invStd := t.allocF64(rows)
	cf := float64(cols)
	gd, bd := gain.Value.Data(), bias.Value.Data()
	for i := 0; i < rows; i++ {
		row := a.Value.Row(i)
		mean := 0.0
		for _, x := range row {
			mean += x
		}
		mean /= cf
		variance := 0.0
		for _, x := range row {
			d := x - mean
			variance += d * d
		}
		variance /= cf
		is := 1 / math.Sqrt(variance+eps)
		invStd[i] = is
		nRow, vRow := norm.Row(i), v.Row(i)
		for j, x := range row {
			nRow[j] = (x - mean) * is
			vRow[j] = nRow[j]*gd[j] + bd[j]
		}
	}
	need := a.needGrad || gain.needGrad || bias.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		og := out.grad
		if gain.needGrad {
			g := t.alloc(1, cols)
			ggd := g.Data()
			for i := 0; i < rows; i++ {
				oRow, nRow := og.Row(i), norm.Row(i)
				for j := range ggd {
					ggd[j] += oRow[j] * nRow[j]
				}
			}
			gain.accumOwned(g)
		}
		if bias.needGrad {
			g := t.alloc(1, cols)
			og.ColSumsInto(g)
			bias.accumOwned(g)
		}
		if a.needGrad {
			g := t.alloc(rows, cols)
			for i := 0; i < rows; i++ {
				oRow, nRow, gRow := og.Row(i), norm.Row(i), g.Row(i)
				// dxhat = og * gain
				sumD, sumDN := 0.0, 0.0
				for j := range gRow {
					d := oRow[j] * gd[j]
					gRow[j] = d
					sumD += d
					sumDN += d * nRow[j]
				}
				is := invStd[i]
				for j := range gRow {
					gRow[j] = is * (gRow[j] - sumD/cf - nRow[j]*sumDN/cf)
				}
			}
			a.accumOwned(g)
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
