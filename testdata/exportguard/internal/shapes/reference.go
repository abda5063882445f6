package shapes

// RefArea is a test oracle, but the program calls it.
func RefArea(s Square) float64 { return s.S * s.S }

// RefPerimeter is a test oracle that nothing calls.
func RefPerimeter(s Square) float64 { return 4 * s.S }
