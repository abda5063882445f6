package nn

import "repro/internal/autograd"

// This file holds the plain optimizer and the layer count that tests
// train and inspect models with. No program calls them; training runs
// Adam.

// NumLayers returns the count of linear layers (hidden + output).
func (m *MLP) NumLayers() int { return len(m.layers) }

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float64
}

// NewSGD returns a plain SGD optimizer.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step applies one SGD update to each parameter and zeroes gradients.
func (o *SGD) Step(params []*autograd.Param) {
	for _, p := range params {
		p.Value.AXPY(-o.LR, p.Grad)
		p.ZeroGrad()
	}
}
