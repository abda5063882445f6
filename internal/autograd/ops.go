package autograd

import "repro/internal/tensor"

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
