package nn

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and zeroes
// the gradients afterwards.
type Optimizer interface {
	Step(params []*autograd.Param)
}

// Adam is the Adam optimizer (Kingma & Ba), the optimizer used by the
// acorn training configs.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*autograd.Param]*tensor.Dense
	v map[*autograd.Param]*tensor.Dense
}

// NewAdam returns Adam with the standard β/ε defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to each parameter and zeroes gradients.
func (o *Adam) Step(params []*autograd.Param) {
	if o.m == nil {
		o.m = make(map[*autograd.Param]*tensor.Dense)
		o.v = make(map[*autograd.Param]*tensor.Dense)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		g := p.Grad
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(g.Rows(), g.Cols())
			o.m[p] = m
			o.v[p] = tensor.New(g.Rows(), g.Cols())
		}
		v := o.v[p]
		md, vd, gd, pd := m.Data(), v.Data(), g.Data(), p.Value.Data()
		for i := range gd {
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*gd[i]
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*gd[i]*gd[i]
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			pd[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// ZeroGrads clears the gradients of all parameters.
func ZeroGrads(params []*autograd.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// GradElements returns the total number of gradient elements across
// params — the size of the coalesced all-reduce buffer.
func GradElements(params []*autograd.Param) int {
	n := 0
	for _, p := range params {
		n += p.Grad.Size()
	}
	return n
}

// FlattenGrads copies every parameter gradient into buf in order.
// buf must have GradElements(params) capacity.
func FlattenGrads(params []*autograd.Param, buf []float64) {
	off := 0
	for _, p := range params {
		copy(buf[off:off+p.Grad.Size()], p.Grad.Data())
		off += p.Grad.Size()
	}
}

// UnflattenGrads copies buf back into the parameter gradients in order.
func UnflattenGrads(params []*autograd.Param, buf []float64) {
	off := 0
	for _, p := range params {
		copy(p.Grad.Data(), buf[off:off+p.Grad.Size()])
		off += p.Grad.Size()
	}
}

// ParamElements returns the total number of value elements across params
// — the size of a flattened weight buffer (equals GradElements for
// well-formed params; spelled separately because weight replication and
// gradient reduction are different wires).
func ParamElements(params []*autograd.Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// FlattenParams copies every parameter value into buf in order — the
// payload of an initial-weight broadcast. buf must have
// ParamElements(params) capacity.
func FlattenParams(params []*autograd.Param, buf []float64) {
	off := 0
	for _, p := range params {
		copy(buf[off:off+p.Value.Size()], p.Value.Data())
		off += p.Value.Size()
	}
}

// UnflattenParams copies buf back into the parameter values in order.
func UnflattenParams(params []*autograd.Param, buf []float64) {
	off := 0
	for _, p := range params {
		copy(p.Value.Data(), buf[off:off+p.Value.Size()])
		off += p.Value.Size()
	}
}
