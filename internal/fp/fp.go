// Package fp defines the floating-point element-type constraint shared
// by the precision-generic numeric core (tensor, sparse, workspace, nn,
// and the stage inference paths). It is a leaf package (no imports) so
// every layer can depend on it without cycles.
//
// The constraint is deliberately exact (no ~): the workspace pools and
// checkpoint dtype tags dispatch on the concrete element type, and a
// defined type with a float underlying type would silently bypass them.
package fp

// Float is the element-type constraint of the numeric core: exactly
// float32 or float64.
type Float interface {
	float32 | float64
}

// Is32 reports whether T is float32.
func Is32[T Float]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// Pick selects between two precision-specialized values by T and
// asserts the winner to F. It exists for the zero-allocation contract
// of the generic parallel kernels: a func literal (or generic func
// value) materialized inside a generic function carries its dictionary
// and allocates a closure per call, so the kernel packages instead bind
// both concrete instantiations of each parallel body once at package
// init (boxed as any) and route through Pick — a branch and an
// interface assertion, no allocation.
func Pick[T Float, F any](v64, v32 any) F {
	if Is32[T]() {
		return v32.(F)
	}
	return v64.(F)
}
