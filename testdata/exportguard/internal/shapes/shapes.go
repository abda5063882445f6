// Package shapes holds one case of each finding of the export guard.
package shapes

// Shape is the interface the program measures shapes through.
type Shape interface {
	Perimeter() float64
}

// Circle is a shape whose Area the program calls.
type Circle struct{ R float64 }

func (c Circle) Area() float64      { return 3 * c.R * c.R }
func (c Circle) Perimeter() float64 { return 6 * c.R }

// Square is a shape the program measures only through Shape.
type Square struct{ S float64 }

func (s Square) Area() float64      { return s.S * s.S }
func (s Square) Perimeter() float64 { return 4 * s.S }
