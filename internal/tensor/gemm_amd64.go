package tensor

// simdGEMM selects the AVX tile kernels in gemm_amd64.s for gemmBody's
// full MR×8 and MR×4 tiles and for the float64 full tiles of matMulTBody
// and tMatMulBody. It is set once from the CPU probe; tests flip it to run
// the Go bodies on the same inputs.
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

// gemmTile4x8F64 is gemmTile4x4F64 for a float64 4×8 tile: o[r*n+j]
// (r < 4, j < 8) against two adjacent packed panels of 4k elements each
// (panel, then panel+4k), with bias[0:8]. Every A quad's zero test and
// broadcasts feed both panels; each output lane does gemmTile4x4F64's
// arithmetic, so its bits are the same.
//
//go:noescape
func gemmTile4x8F64(o *float64, n int, a *float64, panel *float64, k int, bias *float64, relu bool)

// gemmTile2x8F32 is gemmTile4x8F64 for a float32 2×8 tile.
//
//go:noescape
func gemmTile2x8F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool)

// matMulTTiles2x4F64 stores, for r < 2 and c < 4·tiles, the quad part
// of the dot product of row a[r*k:(r+1)*k] with row b[c*k:(c+1)*k] to
// o[r*n+c]: matMulTBody's stride sums s0..s3 over the k &^ 3 leading
// elements, reduced ((s0+s1)+s2)+s3, one 2×4 tile at a time. k must be
// at least 4 and tiles at least 1.
//
//go:noescape
func matMulTTiles2x4F64(o *float64, n int, a *float64, b *float64, k int, tiles int)

// tMatMulTile2x16F64 stores, for r < 2 and j < 16, the sum over q < p in
// ascending order of a[q*lda+r]·b[q*n+j], skipping every q whose
// a[q*lda+r] equals zero, to o[r*n+j]: tMatMulBody's accumulation for
// one 2×16 output tile. p must be at least 1.
//
//go:noescape
func tMatMulTile2x16F64(o *float64, n int, a *float64, lda int, b *float64, p int)
