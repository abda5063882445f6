package workspace

import "repro/internal/fp"

// Arena hands out pooled scratch slices and releases them in groups: a
// trainer keeps one arena per rank, takes a checkpoint before each step,
// and resets to it afterwards, returning every slice the step's forward,
// backward, and optimizer phases borrowed. Allocation through an arena is
// O(1) amortized and steady-state allocation-free once the underlying
// pools are warm.
//
// An Arena is NOT goroutine-safe: each goroutine (trainer rank) must own
// its own. The backing pools are shared and goroutine-safe.
type Arena struct {
	f64s [][]float64
	f32s [][]float32
	ints [][]int
}

// Mark is a checkpoint in an arena's allocation history.
type Mark struct {
	f64s, f32s, ints int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// F64 returns a zeroed []float64 of length n owned by the arena.
func (a *Arena) F64(n int) []float64 {
	s := GetF64(n)
	a.f64s = append(a.f64s, s)
	return s
}

// F32 returns a zeroed []float32 of length n owned by the arena.
func (a *Arena) F32(n int) []float32 {
	s := GetF32(n)
	a.f32s = append(a.f32s, s)
	return s
}

// Float returns a zeroed []T of length n owned by the arena — the
// precision-generic entry used by tensor.NewFromOf and the generic
// inference forwards.
func Float[T fp.Float](a *Arena, n int) []T {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(a.F32(n)).([]T)
	}
	return any(a.F64(n)).([]T)
}

// Int returns a zeroed []int of length n owned by the arena.
func (a *Arena) Int(n int) []int {
	s := GetInt(n)
	a.ints = append(a.ints, s)
	return s
}

// Checkpoint records the current allocation state. A later ResetTo
// releases only what was allocated after this point.
func (a *Arena) Checkpoint() Mark {
	return Mark{f64s: len(a.f64s), f32s: len(a.f32s), ints: len(a.ints)}
}

// ResetTo releases every slice allocated after the mark back to the
// pools. The caller must not use those slices afterwards.
func (a *Arena) ResetTo(m Mark) {
	for i := m.f64s; i < len(a.f64s); i++ {
		PutF64(a.f64s[i])
		a.f64s[i] = nil
	}
	a.f64s = a.f64s[:m.f64s]
	for i := m.f32s; i < len(a.f32s); i++ {
		PutF32(a.f32s[i])
		a.f32s[i] = nil
	}
	a.f32s = a.f32s[:m.f32s]
	for i := m.ints; i < len(a.ints); i++ {
		PutInt(a.ints[i])
		a.ints[i] = nil
	}
	a.ints = a.ints[:m.ints]
}

// Reset releases everything the arena holds back to the pools.
func (a *Arena) Reset() { a.ResetTo(Mark{}) }

// Live reports how many slices the arena currently holds.
func (a *Arena) Live() int {
	return len(a.f64s) + len(a.f32s) + len(a.ints)
}
