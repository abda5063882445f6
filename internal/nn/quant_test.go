package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/autograd"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MLPQuant coverage: bitwise parity with a step-by-step reference built
// from the exported int8 kernels, quantization-noise bounds against the
// float forward, worker-count determinism, and the fallback (LayerNorm)
// branch. Checkpoint v4 coverage: round trip with activation tables,
// the requantization identity, hostile-input rejection, and the
// no-partial-mutation guarantee.

func randInputs32(r *rng.Rand, rows, cols int) *tensor.Matrix[float32] {
	m := tensor.NewOf[float32](rows, cols)
	for i := range m.Data() {
		m.Data()[i] = float32(r.NormFloat64())
	}
	return m
}

func calibratedQuant(t *testing.T, m *MLP, inputs []*tensor.Matrix[float32]) *MLPQuant {
	t.Helper()
	cal := NewMLPCalibrator(m)
	kc := kernels.Context{Workers: 1}
	for _, x := range inputs {
		cal.Observe(kc, nil, x)
	}
	q, err := cal.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestMLPQuantMatchesUnfusedReference: the fused hidden-layer kernel
// (GEMM+bias+ReLU+requantize in one epilogue) must be bitwise identical
// to the unfused composition of the same exported primitives — the
// float32 epilogue followed by QuantizeInto shares every intermediate
// rounding with the fused path by construction.
func TestMLPQuantMatchesUnfusedReference(t *testing.T) {
	r := rng.New(21)
	m := NewMLP(r, "m", MLPConfig{In: 6, Hidden: []int{16, 8}, Out: 3, Activation: ReLU})
	x := randInputs32(r, 11, 6)
	q := calibratedQuant(t, m, []*tensor.Matrix[float32]{x})
	kc := kernels.Context{Workers: 1}

	got := q.Forward(kc, nil, x)

	scales := q.ActScales()
	in := tensor.NewQMat(11, 6, 0)
	tensor.QuantizeInto(kc, in, x, scales[0])
	h := in
	for i := 0; i < len(q.w)-1; i++ {
		zf := tensor.NewOf[float32](h.Rows(), q.w[i].Cols())
		tensor.QMatMulBiasInto(kc, zf, h, q.w[i], q.b[i], true)
		z := tensor.NewQMat(zf.Rows(), zf.Cols(), 0)
		tensor.QuantizeInto(kc, z, zf, scales[i+1])
		h = z
	}
	want := tensor.NewOf[float32](h.Rows(), q.w[len(q.w)-1].Cols())
	tensor.QMatMulBiasInto(kc, want, h, q.w[len(q.w)-1], q.b[len(q.w)-1], false)

	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("element %d: fused %v vs unfused %v", i, got.Data()[i], v)
		}
	}
}

// TestMLPQuantTracksFloatForward bounds the quantization noise of the
// full int8 forward against the float32 inference on calibrated inputs.
func TestMLPQuantTracksFloatForward(t *testing.T) {
	r := rng.New(22)
	for _, cfg := range []MLPConfig{
		{In: 5, Hidden: []int{32, 32}, Out: 2, Activation: ReLU},
		{In: 5, Hidden: []int{32}, Out: 2, Activation: ReLU, LayerNorm: true},
		{In: 5, Hidden: []int{16}, Out: 2, Activation: Tanh},
	} {
		m := NewMLP(r, "m", cfg)
		inputs := make([]*tensor.Matrix[float32], 4)
		for i := range inputs {
			inputs[i] = randInputs32(r, 20, 5)
		}
		q := calibratedQuant(t, m, inputs)
		inf := NewMLPInference[float32](m)
		kc := kernels.Context{Workers: 1}
		worst := 0.0
		for _, x := range inputs {
			want := inf.Forward(kc, nil, tensor.Seg[float32]{M: x})
			got := q.Forward(kc, nil, x)
			for i, v := range want.Data() {
				if d := math.Abs(float64(v - got.Data()[i])); d > worst {
					worst = d
				}
			}
		}
		// Small calibrated nets keep end-to-end int8 noise well under
		// this; a scale-composition bug shows up orders of magnitude
		// above it.
		if worst > 0.25 {
			t.Fatalf("cfg %+v: int8 forward drifts %v from float", cfg, worst)
		}
	}
}

func TestMLPQuantWorkerCountParity(t *testing.T) {
	r := rng.New(23)
	m := NewMLP(r, "m", MLPConfig{In: 8, Hidden: []int{24, 24}, Out: 4, Activation: ReLU})
	x := randInputs32(r, 130, 8)
	q := calibratedQuant(t, m, []*tensor.Matrix[float32]{x})
	ref := q.Forward(kernels.Context{Workers: 1}, nil, x)
	for _, w := range []int{2, 4, 7} {
		got := q.Forward(kernels.Context{Workers: w}, nil, x)
		for i, v := range ref.Data() {
			if got.Data()[i] != v {
				t.Fatalf("element %d differs at %d workers: %v vs %v", i, w, got.Data()[i], v)
			}
		}
	}
}

func TestMLPQuantRejectsBadScales(t *testing.T) {
	m := NewMLP(rng.New(24), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	if _, err := NewMLPQuant(m, []float32{1}); err == nil {
		t.Fatal("wrong scale count accepted")
	}
	if _, err := NewMLPQuant(m, []float32{1, 0}); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := NewMLPQuant(m, []float32{1, float32(math.Inf(1))}); err == nil {
		t.Fatal("infinite scale accepted")
	}
	if _, err := NewMLPQuant(m, []float32{-1, 1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestMLPQuantForwardQScaleMismatchPanics(t *testing.T) {
	m := NewMLP(rng.New(25), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	q, err := NewMLPQuant(m, []float32{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardQ accepted an input at the wrong scale")
		}
	}()
	q.ForwardQ(kernels.Context{Workers: 1}, nil, tensor.NewQMat(1, 2, 0.125))
}

// ---- checkpoint v4 ----

func v4Fixture(t *testing.T, seed uint64) ([]*autograd.Param, []ActScales) {
	t.Helper()
	m := NewMLP(rng.New(seed), "m", MLPConfig{In: 3, Hidden: []int{8}, Out: 2, Activation: ReLU, LayerNorm: true})
	act := []ActScales{
		{Name: "stage.a", Scales: []float32{0.5, 0.25}},
		{Name: "stage.b", Scales: []float32{1, 2, 3}},
	}
	return m.Params(), act
}

func TestCheckpointV4RoundTrip(t *testing.T) {
	params, act := v4Fixture(t, 31)
	var buf bytes.Buffer
	if err := SaveParamsInt8(&buf, params, act); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), checkpointMagicV4[:]) {
		t.Fatal("v4 checkpoint does not open with the v4 magic")
	}

	dst, _ := v4Fixture(t, 99)
	gotAct, err := LoadParamsExt(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAct) != len(act) {
		t.Fatalf("activation tables: %d vs %d", len(gotAct), len(act))
	}
	for i, a := range act {
		if gotAct[i].Name != a.Name || len(gotAct[i].Scales) != len(a.Scales) {
			t.Fatalf("activation table %d did not round-trip", i)
		}
		for j, s := range a.Scales {
			if gotAct[i].Scales[j] != s {
				t.Fatalf("activation table %q scale %d: %v vs %v", a.Name, j, gotAct[i].Scales[j], s)
			}
		}
	}

	// The requantization identity: re-quantizing the dequantized matrix
	// weights reproduces the exported payload bitwise, and row-vector
	// parameters round-trip through float32 exactly.
	for i, p := range params {
		d := dst[i]
		if p.Value.Rows() == 1 {
			for k, v := range p.Value.Data() {
				if d.Value.Data()[k] != float64(float32(v)) {
					t.Fatalf("param %q: f32 row vector did not round-trip", p.Name)
				}
			}
			continue
		}
		q1 := tensor.QuantizeWeights(p.Value)
		q2 := tensor.QuantizeWeights(d.Value)
		for j, s := range q1.ColScale {
			if q2.ColScale[j] != s {
				t.Fatalf("param %q column %d scale drifted on reload", p.Name, j)
			}
		}
		for k, v := range q1.Data() {
			if q2.Data()[k] != v {
				t.Fatalf("param %q element %d drifted on reload", p.Name, k)
			}
		}
	}
}

func TestCheckpointV4FileRoundTrip(t *testing.T) {
	params, act := v4Fixture(t, 32)
	path := filepath.Join(t.TempDir(), "model.i8.ckpt.gz")
	if err := SaveParamsFileInt8(path, params, act); err != nil {
		t.Fatal(err)
	}
	dst, _ := v4Fixture(t, 98)
	gotAct, err := LoadParamsFileExt(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAct) != len(act) {
		t.Fatal("file round trip lost activation tables")
	}
	// And the plain loader accepts the file too, discarding the tables.
	dst2, _ := v4Fixture(t, 97)
	if err := LoadParamsFile(path, dst2); err != nil {
		t.Fatal(err)
	}
}

func TestSaveParamsInt8RejectsBadActTables(t *testing.T) {
	params, _ := v4Fixture(t, 33)
	bad := [][]ActScales{
		{{Name: "", Scales: []float32{1}}},
		{{Name: "a", Scales: []float32{1}}, {Name: "a", Scales: []float32{2}}},
		{{Name: "a", Scales: nil}},
		{{Name: "a", Scales: []float32{0}}},
		{{Name: "a", Scales: []float32{-1}}},
		{{Name: "a", Scales: []float32{float32(math.Inf(1))}}},
	}
	for i, act := range bad {
		var buf bytes.Buffer
		if err := SaveParamsInt8(&buf, params, act); err == nil {
			t.Fatalf("case %d: invalid activation tables accepted", i)
		}
	}
}

// saveV4Mutated writes a v4 checkpoint and lets the caller corrupt the
// header/file structs before encoding — the hostile-file generator.
func saveV4Mutated(t *testing.T, params []*autograd.Param, act []ActScales, mutate func(*checkpointHeader, *checkpointFile)) *bytes.Buffer {
	t.Helper()
	buf, err := encodeV4Mutated(params, act, mutate)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// encodeV4Mutated is saveV4Mutated's core, shared with the fuzz seed
// corpus (which has no *testing.T at generation time).
func encodeV4Mutated(params []*autograd.Param, act []ActScales, mutate func(*checkpointHeader, *checkpointFile)) (*bytes.Buffer, error) {
	hdr := checkpointHeader{NumParams: len(params)}
	file := checkpointFile{Version: checkpointVersionV4, Act: act}
	for _, p := range params {
		rows, cols := p.Value.Rows(), p.Value.Cols()
		dtype := DtypeI8
		if rows == 1 {
			dtype = DtypeF32
		}
		hdr.Names = append(hdr.Names, p.Name)
		hdr.Rows = append(hdr.Rows, rows)
		hdr.Cols = append(hdr.Cols, cols)
		hdr.Counts = append(hdr.Counts, rows*cols)
		hdr.Dtypes = append(hdr.Dtypes, dtype)
		rec := checkpointRecord{Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Dtype: dtype}
		if dtype == DtypeI8 {
			q := tensor.QuantizeWeights(p.Value)
			rec.Data8 = append([]int8(nil), q.Data()...)
			rec.ColScales = append([]float32(nil), q.ColScale...)
		} else {
			rec.Data32 = make([]float32, rows*cols)
			for i, v := range p.Value.Data() {
				rec.Data32[i] = float32(v)
			}
		}
		file.Params = append(file.Params, rec)
	}
	mutate(&hdr, &file)
	var buf bytes.Buffer
	if _, err := buf.Write(checkpointMagicV4[:]); err != nil {
		return nil, err
	}
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&hdr); err != nil {
		return nil, err
	}
	if err := enc.Encode(&file); err != nil {
		return nil, err
	}
	return &buf, nil
}

// i8RecIndex returns the index of the first i8-dtype record.
func i8RecIndex(file *checkpointFile) int {
	for i, rec := range file.Params {
		if rec.Dtype == DtypeI8 {
			return i
		}
	}
	return -1
}

// TestCheckpointV4HostileRejected: every corruption an attacker (or a
// bad disk) can introduce into a v4 file is rejected before any weight
// is copied — the model is never partially mutated.
func TestCheckpointV4HostileRejected(t *testing.T) {
	params, act := v4Fixture(t, 34)
	cases := []struct {
		name   string
		mutate func(*checkpointHeader, *checkpointFile)
	}{
		{"minus-128 weight", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].Data8[0] = -128
		}},
		{"truncated int8 payload", func(h *checkpointHeader, f *checkpointFile) {
			i := i8RecIndex(f)
			f.Params[i].Data8 = f.Params[i].Data8[:len(f.Params[i].Data8)-1]
		}},
		{"truncated column scales", func(h *checkpointHeader, f *checkpointFile) {
			i := i8RecIndex(f)
			f.Params[i].ColScales = f.Params[i].ColScales[:1]
		}},
		{"zero column scale", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].ColScales[0] = 0
		}},
		{"negative column scale", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].ColScales[0] = -0.5
		}},
		{"infinite column scale", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].ColScales[0] = float32(math.Inf(1))
		}},
		{"i8 record smuggles f64 payload", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].Data = []float64{1e300}
		}},
		{"i8 record smuggles f32 payload", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].Data32 = []float32{1}
		}},
		{"f32 record smuggles i8 payload", func(h *checkpointHeader, f *checkpointFile) {
			for i := range f.Params {
				if f.Params[i].Dtype == DtypeF32 {
					f.Params[i].Data8 = []int8{1}
					return
				}
			}
			t.Fatal("fixture has no f32 record")
		}},
		{"dtype disagrees with header", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].Dtype = DtypeF32
		}},
		{"empty act table", func(h *checkpointHeader, f *checkpointFile) {
			f.Act = append(f.Act, ActScales{Name: "extra", Scales: nil})
		}},
		{"duplicate act table", func(h *checkpointHeader, f *checkpointFile) {
			f.Act = append(f.Act, ActScales{Name: f.Act[0].Name, Scales: []float32{1}})
		}},
		{"hostile act scale", func(h *checkpointHeader, f *checkpointFile) {
			f.Act[0].Scales[0] = 0
		}},
		{"oversized act section", func(h *checkpointHeader, f *checkpointFile) {
			f.Act = f.Act[:0]
			for i := 0; i <= maxActScaleEntries; i++ {
				f.Act = append(f.Act, ActScales{Name: string(rune('a'+i%26)) + string(rune('0'+i%10)) + "-" + string(rune('a'+(i/260)%26)) + string(rune('a'+(i/10)%26)), Scales: []float32{1}})
			}
		}},
	}
	for _, tc := range cases {
		dst, _ := v4Fixture(t, 77)
		before := make([]*tensor.Dense, len(dst))
		for i, p := range dst {
			before[i] = p.Value.Clone()
		}
		buf := saveV4Mutated(t, params, act, tc.mutate)
		if _, err := LoadParamsExt(buf, dst); err == nil {
			t.Fatalf("%s: hostile checkpoint accepted", tc.name)
		}
		for i, p := range dst {
			if p.Value.MaxAbsDiff(before[i]) != 0 {
				t.Fatalf("%s: param %d mutated by a rejected checkpoint", tc.name, i)
			}
		}
	}
}

// TestCheckpointPreV4RejectsActTables: the Act section is a v4-only
// feature; a pre-v4 file carrying one is corrupt by definition.
func TestCheckpointPreV4RejectsActTables(t *testing.T) {
	params, _ := v4Fixture(t, 35)
	file := checkpointFile{Version: checkpointVersionLegacy, Act: []ActScales{{Name: "a", Scales: []float32{1}}}}
	for _, p := range params {
		file.Params = append(file.Params, checkpointRecord{
			Name: p.Name, Rows: p.Value.Rows(), Cols: p.Value.Cols(), Data: p.Value.Data(),
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&file); err != nil {
		t.Fatal(err)
	}
	dst, _ := v4Fixture(t, 76)
	if _, err := LoadParamsExt(&buf, dst); err == nil {
		t.Fatal("legacy checkpoint with activation tables accepted")
	}
}
