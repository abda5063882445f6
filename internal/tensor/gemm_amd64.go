package tensor

// simdGEMM selects the AVX tile kernels in gemm_amd64.s for gemmBody's
// full MR×4 tiles. It is set once from the CPU probe; tests flip it to
// run the Go micro-kernels on the same inputs.
var simdGEMM = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves YMM state.
func cpuHasAVX() bool

// gemmTile4x4F64 computes the float64 4×4 tile o[r*n+j] (r, j < 4) from
// rows a[r*k:(r+1)*k] against one packed panel of 4k elements, then
// adds bias[0:4] (when non-nil) and applies ReLU (when relu is set).
//
//go:noescape
func gemmTile4x4F64(o *float64, n int, a *float64, panel *float64, k int, bias *float64, relu bool)

// gemmTile2x4F32 is gemmTile4x4F64 for a float32 2×4 tile.
//
//go:noescape
func gemmTile2x4F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool)
