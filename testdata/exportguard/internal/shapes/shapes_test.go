package shapes

import "testing"

// A test's call does not keep Square.Area.
func TestSquareArea(t *testing.T) {
	if got := (Square{S: 2}).Area(); got != RefArea(Square{S: 2}) {
		t.Fatal(got)
	}
}
