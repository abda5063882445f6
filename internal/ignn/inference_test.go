package ignn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

var inferenceWorkers = []int{1, 2, 3}

// jitter perturbs every parameter in place, so biases and LayerNorm
// shifts stop being the zeros (and gains the ones) a fresh model has
// and the GEMM epilogue has something to add.
func jitter(m *Model, seed uint64) {
	r := rng.New(seed)
	for _, p := range m.Params() {
		for i, d := 0, p.Value.Data(); i < len(d); i++ {
			d[i] += 0.1 * r.NormFloat64()
		}
	}
}

// randomGraph draws e random edges (repeats and self-loops allowed)
// over n vertices with random features.
func randomGraph(r *rng.Rand, n, e int, cfg Config) (src, dst []int, x, y *tensor.Dense) {
	src, dst = make([]int, e), make([]int, e)
	for i := range src {
		src[i], dst[i] = r.Intn(n), r.Intn(n)
	}
	return src, dst, tensor.RandN(r, n, cfg.NodeFeatures, 1), tensor.RandN(r, e, cfg.EdgeFeatures, 1)
}

// tapeScores is the training-path forward: Model.Forward on a serial
// tape, then the sigmoid.
func tapeScores(m *Model, src, dst []int, x, y *tensor.Dense) []float64 {
	logits := m.Forward(autograd.NewTapeArena(nil), src, dst, x, y).Value
	out := make([]float64, len(src))
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

func scoresBitsEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: score %d differs: %v vs %v", name, i, want[i], got[i])
		}
	}
}

// TestInferenceF64MatchesTapeScores keeps tape == inference a gate now
// that serving no longer runs the tape: the float64 view
// reproduces an explicit Forward on a tape bit for bit, with and
// without LayerNorm, at every worker count.
func TestInferenceF64MatchesTapeScores(t *testing.T) {
	for _, layerNorm := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.LayerNorm = layerNorm
		m := New(cfg, rng.New(3))
		jitter(m, 30)
		src, dst, x, y := ring(rng.New(4), 24, cfg)
		want := tapeScores(m, src, dst, x, y)
		arena := workspace.NewArena()
		defer arena.Reset()
		for _, w := range inferenceWorkers {
			got := NewInference[float64](m).EdgeScoresCtx(kernels.Context{Workers: w}, arena, src, dst, x, y)
			scoresBitsEqual(t, "ring", want, got)
		}
	}
	// A deeper, wider model on a random multigraph: three ping-pong
	// swaps, repeated and out-of-order gather indices, k = 6·12.
	cfg := Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 12, Steps: 4, LayerNorm: true}
	m := New(cfg, rng.New(5))
	jitter(m, 50)
	src, dst, x, y := randomGraph(rng.New(6), 41, 97, cfg)
	want := tapeScores(m, src, dst, x, y)
	for _, w := range inferenceWorkers {
		got := NewInference[float64](m).EdgeScoresCtx(kernels.Context{Workers: w}, nil, src, dst, x, y)
		scoresBitsEqual(t, "random graph", want, got)
	}
}

// refRanges accumulates, per network, the max |value| entering each
// linear layer of refMLP and, in the last slot, leaving the last one —
// the tables calibration records, taken over materialised inputs. A
// nil refRanges records nothing.
type refRanges map[*nn.MLP][]float64

func foldRange[T fp.Float](rr refRanges, m *nn.MLP, slot int, x *tensor.Matrix[T]) {
	if rr == nil {
		return
	}
	if rr[m] == nil {
		rr[m] = make([]float64, m.NumLayers()+1)
	}
	for _, v := range x.Data() {
		rr[m][slot] = math.Max(rr[m][slot], math.Abs(float64(v)))
	}
}

// scales converts the recorded ranges to m's activation-scale tables:
// max/127 per slot, 1 for a slot that only saw zeros.
func (rr refRanges) scales(m *Model) QuantScales {
	scale := func(v float64) float32 {
		if v == 0 {
			return 1
		}
		return float32(v / 127)
	}
	layers := func(net *nn.MLP) []float32 {
		r := rr[net]
		out := make([]float32, len(r)-1)
		for i := range out {
			out[i] = scale(r[i])
		}
		return out
	}
	sc := QuantScales{NodeEnc: layers(m.nodeEncoder), EdgeEnc: layers(m.edgeEncoder), Head: layers(m.head), Agg: []float32{}}
	for l, e := range m.edgeNets {
		sc.EdgeNets = append(sc.EdgeNets, layers(e))
		if l < m.cfg.Steps-1 {
			sc.Agg = append(sc.Agg, scale(rr[e][e.NumLayers()]))
		}
	}
	for _, n := range m.nodeNets {
		sc.NodeNets = append(sc.NodeNets, layers(n))
	}
	return sc
}

// refMLP is nn.MLPInference.Forward as it was before the segmented
// GEMM: per layer a MatMulIntoCtx over a materialised input, then the
// bias(+ReLU) pass, then LayerNorm. Weights convert from the float64
// parameters exactly as NewMLPInference converts them. Ranges fold
// into rr.
func refMLP[T fp.Float](kc kernels.Context, m *nn.MLP, x *tensor.Matrix[T], rr refRanges) *tensor.Matrix[T] {
	ps, nl := m.Params(), m.NumLayers()
	conv := func(p *autograd.Param) *tensor.Matrix[T] { return tensor.ConvertFrom[T](nil, p.Value) }
	h := x
	for i := 0; i < nl; i++ {
		foldRange(rr, m, i, h)
		w, b := conv(ps[2*i]), conv(ps[2*i+1])
		z := tensor.NewOf[T](h.Rows(), w.Cols())
		tensor.MatMulIntoCtx(kc, z, h, w)
		if i == nl-1 {
			tensor.AddBiasRef(z, z, b)
			foldRange(rr, m, nl, z)
			return z
		}
		tensor.AddBiasReLURef(z, z, b)
		if len(ps) > 2*nl { // the LayerNorm gains and biases follow the linear layers
			refLayerNorm(z, conv(ps[2*nl+2*i]).Data(), conv(ps[2*nl+2*i+1]).Data())
		}
		h = z
	}
	panic("unreachable")
}

// refLayerNorm is the tape's LayerNorm forward in T: mean and variance
// accumulate in T, the reciprocal square root is taken in float64.
func refLayerNorm[T fp.Float](m *tensor.Matrix[T], gain, shift []T) {
	cf := T(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		var mean, variance T
		for _, v := range row {
			mean += v
		}
		mean /= cf
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
		variance /= cf
		is := T(1) / T(math.Sqrt(float64(variance)+1e-5))
		for j, v := range row {
			row[j] = (v-mean)*is*gain[j] + shift[j]
		}
	}
}

// refEdgeScores is Inference.EdgeScoresCtx as it was before the
// segmented GEMM: every step materialises X' = [Xl ‖ X0], Y' = [Yl ‖ Y0],
// the [E × 6H] message input and the [V × 4H] node input, and rebuilds
// both incidence matrices. Every network's ranges fold into rr.
func refEdgeScores[T fp.Float](kc kernels.Context, m *Model, src, dst []int, x, y *tensor.Matrix[T], rr refRanges) []float64 {
	n, e, h := x.Rows(), len(src), m.cfg.Hidden
	x0 := refMLP(kc, m.nodeEncoder, x, rr)
	y0 := refMLP(kc, m.edgeEncoder, y, rr)
	xl, yl := x0, y0
	for l := 0; l < m.cfg.Steps; l++ {
		xc := tensor.NewOf[T](n, 2*h)
		tensor.ConcatColsRef(xc, xl, x0)
		yc := tensor.NewOf[T](e, 2*h)
		tensor.ConcatColsRef(yc, yl, y0)
		msgIn := tensor.NewOf[T](e, 6*h)
		tensor.GatherConcat3IntoCtx(kc, msgIn, yc, nil, xc, src, xc, dst)
		yl = refMLP(kc, m.edgeNets[l], msgIn, rr)
		if l == m.cfg.Steps-1 {
			break
		}
		msrc := aggregateRows(kc, yl, src, n)
		mdst := aggregateRows(kc, yl, dst, n)
		nodeIn := tensor.NewOf[T](n, 4*h)
		tensor.ConcatColsRef(nodeIn, msrc, mdst, xc)
		xl = refMLP(kc, m.nodeNets[l], nodeIn, rr)
	}
	logits := refMLP(kc, m.head, yl, rr)
	out := make([]float64, e)
	for i := range out {
		out[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return out
}

// aggregateRows computes out[v] = Σ_{e: idx[e]=v} x[e] as an incidence
// SpMM over a freshly built incidence matrix — the same forward the
// autograd tape's AggregateRows runs.
func aggregateRows[T fp.Float](kc kernels.Context, x *tensor.Matrix[T], idx []int, outRows int) *tensor.Matrix[T] {
	v := tensor.NewOf[T](outRows, x.Cols())
	return sparse.SpMMIntoCtx(kc, v, incidence[T](nil, idx, outRows), x)
}

func testInferenceMatchesUnfused[T fp.Float](t *testing.T) {
	serial := kernels.Context{Workers: 1}
	check := func(name string, m *Model, src, dst []int, x, y *tensor.Dense) {
		t.Helper()
		xt, yt := tensor.ConvertFrom[T](nil, x), tensor.ConvertFrom[T](nil, y)
		want := refEdgeScores(serial, m, src, dst, xt, yt, nil)
		inf := NewInference[T](m)
		arena := workspace.NewArena()
		defer arena.Reset()
		for _, w := range inferenceWorkers {
			got := inf.EdgeScoresCtx(kernels.Context{Workers: w}, arena, src, dst, xt, yt)
			scoresBitsEqual(t, name, want, got)
		}
	}
	for _, layerNorm := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.LayerNorm = layerNorm
		m := New(cfg, rng.New(13))
		jitter(m, 130)
		src, dst, x, y := ring(rng.New(14), 24, cfg)
		check("ring", m, src, dst, x, y)
	}
	// The recon_gnn_* shape: V 1272, E 2217, hidden 32, 4 steps.
	cfg := Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 32, Steps: 4}
	m := New(cfg, rng.New(15))
	jitter(m, 150)
	src, dst, x, y := randomGraph(rng.New(16), 1272, 2217, cfg)
	check("benchmark shape", m, src, dst, x, y)
}

// TestInferenceMatchesUnfusedComposition pins the segmented forward to
// the composition it replaced, bit for bit, at both float precisions —
// for float32 this is the only statement of "unchanged", since the tape
// is float64.
func TestInferenceMatchesUnfusedComposition(t *testing.T) {
	t.Run("f64", testInferenceMatchesUnfused[float64])
	t.Run("f32", testInferenceMatchesUnfused[float32])
}

// TestInferenceCalibrationScales pins the activation-scale tables of a
// recording Inference[float32] to ranges taken over the materialised
// concat composition, bit for bit: at Steps 1 and 3, with and without
// LayerNorm, at 1 and 4 workers, over two graphs each holding one
// isolated node with the largest |x| — a range every node-side table
// must see and no gathered message input may.
func TestInferenceCalibrationScales(t *testing.T) {
	graph := func(seed uint64, cfg Config) (src, dst []int, x, y *tensor.Matrix[float32]) {
		n := 30
		src, dst, x64, y64 := randomGraph(rng.New(seed), n-1, 70, cfg)
		x64 = tensor.ConcatRows(x64, tensor.New(1, cfg.NodeFeatures))
		for j := range cfg.NodeFeatures {
			x64.Set(n-1, j, 9-2*float64(j))
		}
		return src, dst, tensor.ConvertFrom[float32](nil, x64), tensor.ConvertFrom[float32](nil, y64)
	}
	serial := kernels.Context{Workers: 1}
	for _, steps := range []int{1, 3} {
		for _, layerNorm := range []bool{false, true} {
			cfg := Config{NodeFeatures: 3, EdgeFeatures: 2, Hidden: 8, Steps: steps, LayerNorm: layerNorm}
			m := New(cfg, rng.New(23))
			jitter(m, 230)
			rr := refRanges{}
			var want [][]float64
			for g := range 2 {
				src, dst, x, y := graph(uint64(24+g), cfg)
				want = append(want, refEdgeScores(serial, m, src, dst, x, y, rr))
			}
			wantSc := rr.scales(m)
			for _, w := range []int{1, 4} {
				cal := NewCalibration(m)
				arena := workspace.NewArena()
				for g := range 2 {
					src, dst, x, y := graph(uint64(24+g), cfg)
					scoresBitsEqual(t, "recording forward", want[g], cal.EdgeScoresCtx(kernels.Context{Workers: w}, arena, src, dst, x, y))
				}
				arena.Reset()
				name := fmt.Sprintf("steps %d, layerNorm %v, %d workers", steps, layerNorm, w)
				scalesBitsEqual(t, name, wantSc, cal.Scales())
			}
		}
	}
}

func scalesBitsEqual(t *testing.T, name string, want, got QuantScales) {
	t.Helper()
	eq := func(table string, w, g []float32) {
		t.Helper()
		if len(w) != len(g) {
			t.Fatalf("%s: %s has %d scales, want %d", name, table, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(g[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", name, table, i, g[i], w[i])
			}
		}
	}
	eq("NodeEnc", want.NodeEnc, got.NodeEnc)
	eq("EdgeEnc", want.EdgeEnc, got.EdgeEnc)
	eq("Head", want.Head, got.Head)
	eq("Agg", want.Agg, got.Agg)
	if len(got.EdgeNets) != len(want.EdgeNets) || len(got.NodeNets) != len(want.NodeNets) {
		t.Fatalf("%s: %d edge and %d node tables, want %d and %d", name,
			len(got.EdgeNets), len(got.NodeNets), len(want.EdgeNets), len(want.NodeNets))
	}
	for l := range want.EdgeNets {
		eq(fmt.Sprintf("EdgeNets[%d]", l), want.EdgeNets[l], got.EdgeNets[l])
	}
	for l := range want.NodeNets {
		eq(fmt.Sprintf("NodeNets[%d]", l), want.NodeNets[l], got.NodeNets[l])
	}
}

// TestInferenceDegenerateGraphs covers the input boundary: an event
// with no edges scores nothing (src nil or empty), and a one-hit event
// whose only possible edges are self-loops still matches the tape and
// the unfused composition.
func TestInferenceDegenerateGraphs(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg, rng.New(17))
	jitter(m, 170)
	inf32 := NewInference[float32](m)
	for _, nodes := range []int{1, 5} {
		x := tensor.RandN(rng.New(18), nodes, cfg.NodeFeatures, 1)
		for _, none := range [][]int{nil, {}} {
			y := tensor.New(0, cfg.EdgeFeatures)
			if got := NewInference[float64](m).EdgeScoresCtx(kernels.Context{}, nil, none, none, x, y); len(got) != 0 {
				t.Fatalf("f64, %d nodes, no edges: %d scores", nodes, len(got))
			}
			got := inf32.EdgeScoresCtx(kernels.Context{}, nil, none, none,
				tensor.ConvertFrom[float32](nil, x), tensor.ConvertFrom[float32](nil, y))
			if len(got) != 0 {
				t.Fatalf("f32, %d nodes, no edges: %d scores", nodes, len(got))
			}
		}
	}
	loops := []int{0, 0, 0}
	x := tensor.RandN(rng.New(19), 1, cfg.NodeFeatures, 1)
	y := tensor.RandN(rng.New(20), len(loops), cfg.EdgeFeatures, 1)
	scoresBitsEqual(t, "one hit f64", tapeScores(m, loops, loops, x, y), NewInference[float64](m).EdgeScoresCtx(kernels.Context{}, nil, loops, loops, x, y))
	x32, y32 := tensor.ConvertFrom[float32](nil, x), tensor.ConvertFrom[float32](nil, y)
	scoresBitsEqual(t, "one hit f32",
		refEdgeScores(kernels.Context{Workers: 1}, m, loops, loops, x32, y32, nil),
		inf32.EdgeScoresCtx(kernels.Context{}, nil, loops, loops, x32, y32))
}

// TestInferenceF64ViewTracksParams pins the aliasing the float64 view
// is built on: a weight written in place is seen by the next call with
// nothing refreshed in between, while a float32 snapshot is not moved.
func TestInferenceF64ViewTracksParams(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg, rng.New(21))
	src, dst, x, y := ring(rng.New(22), 12, cfg)
	x32, y32 := tensor.ConvertFrom[float32](nil, x), tensor.ConvertFrom[float32](nil, y)
	inf64, inf32 := NewInference[float64](m), NewInference[float32](m)
	before := inf64.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	before32 := inf32.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x32, y32)

	jitter(m, 210)
	after := inf64.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	scoresBitsEqual(t, "view after in-place update", tapeScores(m, src, dst, x, y), after)
	same := true
	for i := range before {
		same = same && before[i] == after[i]
	}
	if same {
		t.Fatal("scores did not move with the parameters")
	}
	scoresBitsEqual(t, "f32 snapshot", before32, inf32.EdgeScoresCtx(kernels.Context{}, nil, src, dst, x32, y32))
}

// TestInferenceF32WithinTolerance bounds the f32 score drift on the
// small ring fixture. Scores are sigmoids in [0,1]; the deep (Steps=2)
// unit-scale network keeps the drift orders of magnitude below the 0.5
// decision threshold's neighborhood.
func TestInferenceF32WithinTolerance(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg, rng.New(5))
	src, dst, x, y := ring(rng.New(6), 24, cfg)

	want := NewInference[float64](m).EdgeScoresCtx(kernels.Context{}, nil, src, dst, x, y)
	inf32 := NewInference[float32](m)
	got := inf32.EdgeScoresCtx(kernels.Context{}, nil, src, dst,
		tensor.ConvertFrom[float32](nil, x), tensor.ConvertFrom[float32](nil, y))
	worst := 0.0
	for i := range want {
		if d := math.Abs(want[i] - got[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Fatalf("f32 scores drift %v from f64", worst)
	}
}

// TestInferenceArenaReleased verifies the inference pass returns every
// arena slice it borrowed.
func TestInferenceArenaReleased(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg, rng.New(7))
	src, dst, x, y := ring(rng.New(8), 16, cfg)
	inf := NewInference[float32](m)
	arena := workspace.NewArena()
	defer arena.Reset()
	x32 := tensor.ConvertFrom[float32](nil, x)
	y32 := tensor.ConvertFrom[float32](nil, y)
	before := arena.Live()
	inf.EdgeScoresCtx(kernels.Context{}, arena, src, dst, x32, y32)
	if arena.Live() != before {
		t.Fatalf("inference leaked %d arena slices", arena.Live()-before)
	}
}
