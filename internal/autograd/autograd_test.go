package autograd

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// numGrad computes a central-difference gradient of f with respect to p.
func numGrad(f func() float64, p *Param, h float64) *tensor.Dense {
	g := tensor.New(p.Value.Rows(), p.Value.Cols())
	d := p.Value.Data()
	for i := range d {
		orig := d[i]
		d[i] = orig + h
		fp := f()
		d[i] = orig - h
		fm := f()
		d[i] = orig
		g.Data()[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad runs forward() once for the analytic gradient and compares it
// against the numerical gradient for every parameter.
func checkGrad(t *testing.T, name string, params []*Param, forward func() (*Tape, *Node)) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	tape, loss := forward()
	tape.Backward(loss)
	f := func() float64 {
		_, l := forward()
		return l.Value.At(0, 0)
	}
	for _, p := range params {
		want := numGrad(f, p, 1e-6)
		if diff := p.Grad.MaxAbsDiff(want); diff > 1e-4 {
			t.Fatalf("%s: param %s gradient mismatch %v\nanalytic %v\nnumeric %v",
				name, p.Name, diff, p.Grad, want)
		}
	}
}

// TestMatMulGrad checks MatMul's gradients at a small shape and at one
// whose backward GEMMs reach the AVX tiles and every remainder: for
// 9×19 · 19×17, dA = dOut·Bᵀ is 9×19 (four 2-row tiles and an odd row,
// four 4-column tiles and 3 more columns, k = 17: four quads and a tail
// term) and dB = Aᵀ·dOut is 19×17 (nine 2-row tiles and an odd row, one
// 16-column tile and one more column).
func TestMatMulGrad(t *testing.T) {
	r := rng.New(1)
	for _, sh := range []struct{ m, k, n int }{{3, 4, 2}, {9, 19, 17}} {
		a := NewParam("a", tensor.RandN(r, sh.m, sh.k, 1))
		b := NewParam("b", tensor.RandN(r, sh.k, sh.n, 1))
		checkGrad(t, "matmul", []*Param{a, b}, func() (*Tape, *Node) {
			tp := NewTapeArena(nil)
			out := tp.MatMul(tp.Use(a), tp.Use(b))
			return tp, tp.mean(tp.Mul(out, out))
		})
	}
}

func TestAddBiasGrad(t *testing.T) {
	r := rng.New(2)
	w := NewParam("w", tensor.RandN(r, 5, 3, 1))
	bias := NewParam("b", tensor.RandN(r, 1, 3, 1))
	checkGrad(t, "addbias", []*Param{w, bias}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		out := tp.AddBias(tp.Use(w), tp.Use(bias))
		return tp, tp.mean(tp.Mul(out, out))
	})
}

func TestConcatColsGrad(t *testing.T) {
	r := rng.New(3)
	a := NewParam("a", tensor.RandN(r, 4, 2, 1))
	b := NewParam("b", tensor.RandN(r, 4, 3, 1))
	mix := tensor.RandN(r, 5, 1, 1)
	checkGrad(t, "concat", []*Param{a, b}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		cat := tp.ConcatCols(tp.Use(a), tp.Use(b))
		return tp, tp.mean(tp.Mul(tp.MatMul(cat, tp.Constant(mix)), tp.MatMul(cat, tp.Constant(mix))))
	})
}

func TestGatherScatterGrad(t *testing.T) {
	r := rng.New(4)
	x := NewParam("x", tensor.RandN(r, 6, 3, 1))
	idx := []int{0, 2, 2, 5, 1, 0, 3}
	checkGrad(t, "gather-scatter", []*Param{x}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		g := tp.GatherRows(tp.Use(x), idx)
		agg := tp.scatterAddRows(g, []int{0, 1, 1, 2, 0, 3, 3}, 4)
		return tp, tp.mean(tp.Mul(agg, agg))
	})
}

func TestActivationGrads(t *testing.T) {
	r := rng.New(5)
	// Keep values away from the ReLU kink for clean finite differences.
	base := tensor.RandN(r, 4, 4, 1)
	for i, v := range base.Data() {
		if math.Abs(v) < 0.05 {
			base.Data()[i] = 0.1
		}
	}
	x := NewParam("x", base)
	acts := map[string]func(*Tape, *Node) *Node{
		"relu":    func(tp *Tape, n *Node) *Node { return tp.ReLU(n) },
		"sigmoid": func(tp *Tape, n *Node) *Node { return tp.Sigmoid(n) },
		"tanh":    func(tp *Tape, n *Node) *Node { return tp.Tanh(n) },
	}
	for name, act := range acts {
		act := act
		checkGrad(t, name, []*Param{x}, func() (*Tape, *Node) {
			tp := NewTapeArena(nil)
			out := act(tp, tp.Use(x))
			return tp, tp.mean(tp.Mul(out, out))
		})
	}
}

func TestReductionGrads(t *testing.T) {
	r := rng.New(6)
	x := NewParam("x", tensor.RandN(r, 5, 3, 1))
	checkGrad(t, "rowsums", []*Param{x}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		rs := tp.RowSums(tp.Use(x))
		return tp, tp.mean(tp.Mul(rs, rs))
	})
	checkGrad(t, "sum", []*Param{x}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		n := tp.Use(x)
		return tp, tp.sum(tp.Mul(n, n))
	})
}

// TestElementwiseGrads checks Add, Sub (Add over Scale(-1)), Scale and
// Mul with both operands trainable.
func TestElementwiseGrads(t *testing.T) {
	r := rng.New(13)
	a := NewParam("a", tensor.RandN(r, 4, 3, 1))
	b := NewParam("b", tensor.RandN(r, 4, 3, 1))
	checkGrad(t, "add sub scale mul", []*Param{a, b}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		an, bn := tp.Use(a), tp.Use(b)
		out := tp.Mul(tp.Add(an, tp.Scale(0.5, bn)), tp.Sub(an, bn))
		return tp, tp.mean(tp.Mul(out, out))
	})
}

func TestLayerNormGrad(t *testing.T) {
	r := rng.New(7)
	x := NewParam("x", tensor.RandN(r, 4, 6, 1))
	gain := NewParam("g", tensor.RandUniform(r, 1, 6, 0.5, 1.5))
	bias := NewParam("b", tensor.RandN(r, 1, 6, 0.5))
	checkGrad(t, "layernorm", []*Param{x, gain, bias}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		out := tp.LayerNorm(tp.Use(x), tp.Use(gain), tp.Use(bias), 1e-5)
		return tp, tp.mean(tp.Mul(out, out))
	})
}

func TestBCEWithLogitsGrad(t *testing.T) {
	r := rng.New(8)
	x := NewParam("x", tensor.RandN(r, 8, 1, 1))
	targets := []float64{1, 0, 1, 1, 0, 0, 1, 0}
	for _, pw := range []float64{1.0, 2.5} {
		pw := pw
		checkGrad(t, "bce", []*Param{x}, func() (*Tape, *Node) {
			tp := NewTapeArena(nil)
			return tp, tp.BCEWithLogits(tp.Use(x), targets, pw)
		})
		checkGrad(t, "bce sum", []*Param{x}, func() (*Tape, *Node) {
			tp := NewTapeArena(nil)
			return tp, tp.BCEWithLogitsSum(tp.Use(x), targets, pw)
		})
	}
}

func TestBCEWithLogitsValue(t *testing.T) {
	// BCE of logit 0 against any target is ln 2.
	tp := NewTapeArena(nil)
	logits := tp.Constant(tensor.New(3, 1))
	loss := tp.BCEWithLogits(logits, []float64{0, 1, 0}, 1)
	if math.Abs(loss.Value.At(0, 0)-math.Ln2) > 1e-12 {
		t.Fatalf("BCE(0) = %v, want ln2", loss.Value.At(0, 0))
	}
}

func TestHingePairLossGrad(t *testing.T) {
	r := rng.New(9)
	// Squared distances: keep away from the hinge kink at margin².
	d := tensor.RandUniform(r, 6, 1, 0.1, 2.0)
	for i, v := range d.Data() {
		if math.Abs(v-1.0) < 0.05 { // margin=1 → kink at 1
			d.Data()[i] = 0.5
		}
	}
	x := NewParam("d2", d)
	labels := []float64{1, 0, 1, 0, 0, 1}
	checkGrad(t, "hinge", []*Param{x}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		return tp, tp.HingePairLoss(tp.Use(x), labels, 1.0)
	})
}

func TestMLPCompositeGrad(t *testing.T) {
	// A 2-layer MLP end-to-end: the composition all higher stages rely on.
	r := rng.New(10)
	w1 := NewParam("w1", tensor.XavierInit(r, 4, 8))
	b1 := NewParam("b1", tensor.New(1, 8))
	w2 := NewParam("w2", tensor.XavierInit(r, 8, 1))
	b2 := NewParam("b2", tensor.New(1, 1))
	x := tensor.RandN(r, 10, 4, 1)
	targets := make([]float64, 10)
	for i := range targets {
		targets[i] = float64(i % 2)
	}
	checkGrad(t, "mlp", []*Param{w1, b1, w2, b2}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		h := tp.ReLU(tp.AddBias(tp.MatMul(tp.Constant(x), tp.Use(w1)), tp.Use(b1)))
		out := tp.AddBias(tp.MatMul(h, tp.Use(w2)), tp.Use(b2))
		return tp, tp.BCEWithLogits(out, targets, 1)
	})
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// Using a param twice must sum both contributions.
	r := rng.New(11)
	p := NewParam("p", tensor.RandN(r, 3, 3, 1))
	checkGrad(t, "reuse", []*Param{p}, func() (*Tape, *Node) {
		tp := NewTapeArena(nil)
		n := tp.Use(p)
		return tp, tp.mean(tp.MatMul(n, n))
	})
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on matrix did not panic")
		}
	}()
	tp := NewTapeArena(nil)
	n := tp.Constant(tensor.New(2, 2))
	tp.Backward(n)
}

func TestActivationElements(t *testing.T) {
	tp := NewTapeArena(nil)
	a := tp.Constant(tensor.New(10, 5)) // 50
	b := tp.ReLU(a)                     // 50
	_ = b
	if got := tp.ActivationElements(); got != 100 {
		t.Fatalf("ActivationElements = %d, want 100", got)
	}
	if len(tp.nodes) != 2 {
		t.Fatalf("recorded %d nodes, want 2", len(tp.nodes))
	}
}

func TestConstantReceivesNoGrad(t *testing.T) {
	tp := NewTapeArena(nil)
	c := tp.Constant(tensor.FromRows([][]float64{{1, 2}}))
	s := tp.mean(c)
	tp.Backward(s)
	// Constant had no need for grad; its upstream node should not have
	// propagated anything into trainable state (nothing to check except
	// that no panic occurred and c's value is untouched).
	if c.Value.At(0, 1) != 2 {
		t.Fatal("constant mutated during backward")
	}
}

// scatterAddRows aggregates rows of x into an outRows-row output,
// out[idx[i]] += x[i], with a serial forward: the AGG oracle
// AggregateRows is checked against. Backward gathers the incoming
// gradient back to each source row.
func (t *Tape) scatterAddRows(x *Node, idx []int, outRows int) *Node {
	v := t.alloc(outRows, x.Value.Cols())
	tensor.ScatterAddRows(v, x.Value, idx)
	var out *Node
	out = t.newNode(v, x.needGrad, func() {
		if x.needGrad {
			g := t.alloc(len(idx), x.Value.Cols())
			tensor.GatherRowsIntoCtx(t.kc, g, out.grad, idx)
			x.accumOwned(g)
		}
	})
	if !x.needGrad {
		out.back = nil
	}
	return out
}

// mean reduces all elements to their mean as a 1×1 node: the scalar
// loss the gradient checks differentiate.
func (t *Tape) mean(a *Node) *Node {
	n := float64(a.Value.Size())
	v := t.alloc(1, 1)
	v.Set(0, 0, elementSum(a.Value)/n)
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(a.Value.Rows(), a.Value.Cols())
			g.Fill(out.grad.At(0, 0) / n)
			a.accumOwned(g)
		}
	})
	return out
}

// sum reduces all elements to their sum as a 1×1 node.
func (t *Tape) sum(a *Node) *Node {
	v := t.alloc(1, 1)
	v.Set(0, 0, elementSum(a.Value))
	var out *Node
	out = t.newNode(v, a.needGrad, func() {
		if a.needGrad {
			g := t.alloc(a.Value.Rows(), a.Value.Cols())
			g.Fill(out.grad.At(0, 0))
			a.accumOwned(g)
		}
	})
	return out
}

func elementSum(m *tensor.Dense) float64 {
	s := 0.0
	for _, v := range m.Data() {
		s += v
	}
	return s
}
