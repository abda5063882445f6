// Command measure is the fixture's program.
package main

import (
	"fmt"

	"fixture/internal/shapes"
)

func main() {
	for _, s := range []shapes.Shape{shapes.Circle{R: 1}, shapes.Square{S: 2}} {
		fmt.Println(s.Perimeter())
	}
	fmt.Println(shapes.Circle{R: 1}.Area(), shapes.RefArea(shapes.Square{S: 1}))
}
