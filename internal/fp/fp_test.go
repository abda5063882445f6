package fp

import "testing"

func TestIs32(t *testing.T) {
	if !Is32[float32]() || Is32[float64]() {
		t.Fatal("Is32 misidentifies precision")
	}
}

func TestPick(t *testing.T) {
	f64v := func() int { return 64 }
	f32v := func() int { return 32 }
	if got := Pick[float64, func() int](f64v, f32v)(); got != 64 {
		t.Fatalf("Pick[float64] = %d", got)
	}
	if got := Pick[float32, func() int](f64v, f32v)(); got != 32 {
		t.Fatalf("Pick[float32] = %d", got)
	}
}
