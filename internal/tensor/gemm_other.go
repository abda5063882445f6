//go:build !amd64

package tensor

// simdGEMM is false off amd64: gemmBody, matMulTBody and tMatMulBody run
// their Go code only.
var simdGEMM = false

func gemmTile4x4F64(o *float64, n int, a *float64, panel *float64, k int, bias *float64, relu bool) {
	panic("tensor: no tile kernel on this architecture")
}

func gemmTile4x8F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool) {
	panic("tensor: no tile kernel on this architecture")
}

func gemmTile4x8F64(o *float64, n int, a *float64, panel *float64, k int, bias *float64, relu bool) {
	panic("tensor: no tile kernel on this architecture")
}

func gemmTile4x16F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool) {
	panic("tensor: no tile kernel on this architecture")
}

func matMulTTiles2x4F64(o *float64, n int, a *float64, b *float64, k int, tiles int) {
	panic("tensor: no tile kernel on this architecture")
}

func tMatMulTile2x16F64(o *float64, n int, a *float64, lda int, b *float64, p int) {
	panic("tensor: no tile kernel on this architecture")
}
