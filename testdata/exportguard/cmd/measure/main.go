// Command measure is the fixture's program.
package main

import (
	"errors"
	"fmt"
	"io"

	"fixture/internal/shapes"
	"fixture/report"
)

func main() {
	for _, s := range []shapes.Shape{shapes.Circle{R: 1}, shapes.Square{S: 2}, shapes.Scaled[float64]{K: 1}} {
		fmt.Println(report.Line(s.Perimeter()))
	}
	fmt.Println(shapes.Circle{R: 1}.Area(), shapes.RefArea(shapes.Square{S: 1}))
	var err error = &shapes.BadShape{Err: io.EOF}
	fmt.Println(errors.Is(err, io.EOF))
}
