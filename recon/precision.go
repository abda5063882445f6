package recon

// Precision selects the element type the built-in inference stages run
// in. Training always runs in float64; WithPrecision(Float32) converts
// the trained stage weights to float32 once (at construction, and again
// after Fit or LoadCheckpoint refresh them) and then executes all five
// stages' per-event kernels in float32 — roughly half the memory
// traffic of the bandwidth-bound GEMM/SpMM/gather kernels that dominate
// serving. Scores, thresholds, and track metrics stay float64; the
// precision boundary sits at the per-event feature conversion on the
// way in and the per-edge logit on the way out.
type Precision int

const (
	// Float64 is full precision — the default. The stages run tape-free
	// views of the float64 parameters, bitwise identical to the
	// training-path forward on a tape.
	Float64 Precision = iota
	// Float32 is the reduced-precision serving path.
	Float32
	// Int8 is the quantized serving path: weights quantize per output
	// column, activations at static per-tensor scales captured by a
	// calibration pass (automatic at construction/Fit, or restored from
	// a v4 checkpoint), and the hot GEMM/SpMM kernels move a quarter of
	// Float32's bytes.
	Int8
)

// String returns the conventional dtype tag ("f64"/"f32"/"i8").
func (p Precision) String() string {
	switch p {
	case Float32:
		return "f32"
	case Int8:
		return "i8"
	}
	return "f64"
}

// ParsePrecision parses "f32"/"float32", "f64"/"float64", and
// "i8"/"int8" (the cmd/serve -precision flag values).
func ParsePrecision(s string) (Precision, bool) {
	switch s {
	case "f32", "float32":
		return Float32, true
	case "i8", "int8":
		return Int8, true
	case "f64", "float64", "":
		return Float64, true
	}
	return Float64, false
}

// WithPrecision selects the inference precision of the built-in stages
// (default Float64). Float32 and Int8 apply to the default embedder,
// filter, and GNN classifier adapters and the radius graph builder
// (which searches a custom Embedder's output in float64, as handed
// over); custom stage implementations run whatever precision they
// implement.
// Track efficiency/purity at reduced precision matches Float64 within
// the accuracy budget documented in PERF.md (and enforced by the recon
// precision tests); per-edge scores differ at rounding/quantization
// magnitude, so edges scored within that distance of the decision
// threshold may flip. Int8 additionally needs calibrated activation
// scales: Fit calibrates on the training events, LoadCheckpoint adopts
// a v4 checkpoint's tables, and an untrained reconstructor calibrates
// on a small deterministic synthetic batch so construction always
// succeeds.
func WithPrecision(p Precision) Option {
	return func(s *settings) {
		if p != Float64 && p != Float32 && p != Int8 {
			s.fail("WithPrecision: unknown precision %d", int(p))
			return
		}
		s.precision = p
	}
}
