package tensor

import (
	"math"

	"repro/internal/rng"
)

// RandN fills a new rows×cols matrix with N(0, std²) deviates.
func RandN(r *rng.Rand, rows, cols int, std float64) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = r.NormFloat64() * std
	}
	return m
}

// RandUniform fills a new rows×cols matrix with U[lo, hi) deviates.
func RandUniform(r *rng.Rand, rows, cols int, lo, hi float64) *Dense {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = lo + (hi-lo)*r.Float64()
	}
	return m
}

// XavierInit returns a fanIn×fanOut weight matrix with Glorot-uniform
// initialization, the scheme PyTorch's nn.Linear approximates.
func XavierInit(r *rng.Rand, fanIn, fanOut int) *Dense {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(r, fanIn, fanOut, -limit, limit)
}
