package autograd

import "repro/internal/tensor"

// This file holds the tape's test oracles: the unfused ops that tests
// compose the concat formulation of the Interaction Network from
// (arXiv:2003.11603), which the segmented Linear must match bitwise, and
// the activation count the GNN's memory estimate is held to. No program
// calls them; training runs Linear and AggregateRows.

// ActivationElements returns the total number of float64 elements stored
// across the recorded node values: the inputs and every intermediate,
// which must stay resident for the backward pass. This is the quantity
// the paper's memory-skip logic reasons about. Views are not counted:
// a parameter's value is model storage, which gpumem budgets apart from
// activations, and an Identity node's value is its parent's.
func (t *Tape) ActivationElements() int {
	total := 0
	for _, n := range t.nodes {
		if !n.view {
			total += n.Value.Size()
		}
	}
	return total
}

// MatMul returns a×b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows(), b.Value.Cols())
	tensor.MatMulIntoCtx(t.kc, v, a.Value, b.Value)
	need := a.needGrad || b.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		if a.needGrad {
			g := t.alloc(a.Value.Rows(), a.Value.Cols())
			tensor.MatMulTIntoCtx(t.kc, g, out.grad, b.Value)
			a.accumOwned(g)
		}
		if b.needGrad {
			g := t.alloc(b.Value.Rows(), b.Value.Cols())
			tensor.TMatMulIntoCtx(t.kc, g, a.Value, out.grad)
			b.accumOwned(g)
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

// AddBias adds the 1×c row vector bias to every row of a.
func (t *Tape) AddBias(a, bias *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.AddBiasRef(v, a.Value, bias.Value)
	need := a.needGrad || bias.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		if a.needGrad {
			a.accum(out.grad)
		}
		if bias.needGrad {
			g := t.alloc(1, a.Value.Cols())
			out.grad.ColSumsInto(g)
			bias.accumOwned(g)
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

// ConcatCols concatenates nodes horizontally; gradients split back.
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	vals := make([]*tensor.Dense, len(parts))
	need := false
	rows, totalCols := 0, 0
	for i, p := range parts {
		vals[i] = p.Value
		if i == 0 {
			rows = p.Value.Rows()
		}
		totalCols += p.Value.Cols()
		need = need || p.needGrad
	}
	v := t.alloc(rows, totalCols)
	tensor.ConcatColsRef(v, vals...)
	var out *Node
	out = t.newNode(v, need, func() {
		off := 0
		for _, p := range parts {
			w := p.Value.Cols()
			if p.needGrad {
				g := t.alloc(rows, w)
				tensor.ExtractColsInto(g, out.grad, off)
				p.accumOwned(g)
			}
			off += w
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

// ReLU applies max(0, x) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	v := t.alloc(a.Value.Rows(), a.Value.Cols())
	tensor.ApplyInto(v, a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(v.Rows(), v.Cols())
			av, gd, og := a.Value.Data(), g.Data(), out.grad.Data()
			for i := range gd {
				if av[i] > 0 {
					gd[i] = og[i]
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
