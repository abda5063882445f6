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

// Calibration coverage: the ranges a NewMLPCalibration instance
// records and the forward it runs. Checkpoint v4 coverage: round trip,
// the requantization identity, SnapInt8 as the in-memory twin of a v4
// load, skipped activation tables, hostile-input rejection, and the
// no-partial-mutation guarantee.

func randInputs32(r *rng.Rand, rows, cols int) *tensor.Matrix[float32] {
	m := tensor.NewOf[float32](rows, cols)
	for i := range m.Data() {
		m.Data()[i] = float32(r.NormFloat64())
	}
	return m
}

// TestMLPCalibrationScales: a recording instance's output is bitwise a
// serving instance's, the first layer's scale is the max |input| over
// every recorded batch divided by 127, every layer gets a scale, a
// layer that only ever saw zeros gets scale 1, and a row a gathered
// input does not name is not recorded.
func TestMLPCalibrationScales(t *testing.T) {
	r := rng.New(21)
	m := NewMLP(r, "m", MLPConfig{In: 6, Hidden: []int{16, 8}, Out: 3})
	kc := kernels.Context{Workers: 1}
	inf := NewMLPInference[float32](m)
	cal := NewMLPCalibration(m)
	worst := 0.0
	for range 2 {
		x := randInputs32(r, 11, 6)
		for _, v := range x.Data() {
			worst = math.Max(worst, math.Abs(float64(v)))
		}
		got := cal.Forward(kc, nil, tensor.Seg[float32]{M: x})
		want := inf.Forward(kc, nil, tensor.Seg[float32]{M: x})
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("recording forward element %d: %v, serving forward %v", i, got.Data()[i], v)
			}
		}
	}
	sc := cal.Scales()
	if len(sc) != m.NumLayers() {
		t.Fatalf("%d scales for %d layers", len(sc), m.NumLayers())
	}
	if sc[0] != float32(worst/127) {
		t.Fatalf("input scale %v, want %v", sc[0], worst/127)
	}
	zero := NewMLPCalibration(m)
	zero.Forward(kc, nil, tensor.Seg[float32]{M: tensor.NewOf[float32](3, 6)})
	if got := zero.Scales()[0]; got != 1 {
		t.Fatalf("all-zero input scale %v, want 1", got)
	}
	// A gathered segment counts only the rows its index names.
	g := tensor.NewOf[float32](2, 6)
	g.Set(0, 2, -2)
	g.Set(1, 4, 100)
	gathered := NewMLPCalibration(m)
	gathered.Forward(kc, nil, tensor.Seg[float32]{M: g, Idx: []int{0, 0}})
	if got := gathered.Scales()[0]; got != float32(2.0/127) {
		t.Fatalf("gathered input scale %v, want %v", got, float32(2.0/127))
	}
}

// ---- checkpoint v4 ----

func v4Fixture(t *testing.T, seed uint64) ([]*autograd.Param, []ActScales) {
	t.Helper()
	m := NewMLP(rng.New(seed), "m", MLPConfig{In: 3, Hidden: []int{8}, Out: 2})
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
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
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

// TestSnapInt8MatchesV4Load: SnapInt8 writes exactly what saving a v4
// checkpoint and loading it back writes, and leaves its source alone.
func TestSnapInt8MatchesV4Load(t *testing.T) {
	params, act := v4Fixture(t, 34)
	var before [][]float64
	for _, p := range params {
		before = append(before, append([]float64(nil), p.Value.Data()...))
	}
	var buf bytes.Buffer
	if err := SaveParamsInt8(&buf, params, act); err != nil {
		t.Fatal(err)
	}
	loaded, _ := v4Fixture(t, 96)
	if err := LoadParams(&buf, loaded); err != nil {
		t.Fatal(err)
	}
	snapped, _ := v4Fixture(t, 95)
	SnapInt8(snapped, params)
	for i, p := range params {
		for k, v := range loaded[i].Value.Data() {
			if math.Float64bits(snapped[i].Value.Data()[k]) != math.Float64bits(v) {
				t.Fatalf("param %q element %d: snapped %v, v4 load %v", p.Name, k, snapped[i].Value.Data()[k], v)
			}
			if p.Value.Data()[k] != before[i][k] {
				t.Fatalf("param %q element %d: SnapInt8 modified its source", p.Name, k)
			}
		}
	}
}

// TestSnapInt8TracksFloatForward bounds the storage noise of int8
// weights: the float32 forward over SnapInt8'd parameters stays close
// to the forward over the originals, at one and two hidden layers.
func TestSnapInt8TracksFloatForward(t *testing.T) {
	r := rng.New(22)
	kc := kernels.Context{Workers: 1}
	for _, cfg := range []MLPConfig{
		{In: 5, Hidden: []int{32, 32}, Out: 2},
		{In: 5, Hidden: []int{32}, Out: 2},
		{In: 5, Hidden: []int{16}, Out: 2},
	} {
		m := NewMLP(r, "m", cfg)
		snapped := NewMLP(rng.New(1), "m", cfg)
		SnapInt8(snapped.Params(), m.Params())
		ref, got := NewMLPInference[float32](m), NewMLPInference[float32](snapped)
		worst := 0.0
		for range 4 {
			x := randInputs32(r, 20, 5)
			want := ref.Forward(kc, nil, tensor.Seg[float32]{M: x})
			out := got.Forward(kc, nil, tensor.Seg[float32]{M: x})
			for i, v := range want.Data() {
				worst = math.Max(worst, math.Abs(float64(v-out.Data()[i])))
			}
		}
		// Per-column rounding moves each weight by at most half a step
		// (maxabs/254); a wrong scale or a transposed column shows up
		// orders of magnitude above this.
		if worst > 0.05 {
			t.Fatalf("cfg %+v: int8-snapped forward drifts %v from float", cfg, worst)
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
	if err := LoadParamsFile(path, dst); err != nil {
		t.Fatal(err)
	}
	snapped, _ := v4Fixture(t, 97)
	SnapInt8(snapped, params)
	for i, p := range dst {
		if p.Value.MaxAbsDiff(snapped[i].Value) != 0 {
			t.Fatalf("param %q: the file round trip loads other values than SnapInt8", p.Name)
		}
	}
}

// TestCheckpointV4SkipsActTables: the reader does not look at a v4
// file's activation-scale tables. A file whose tables SaveParamsInt8
// would refuse (empty, duplicate, zero) loads the same weights as the
// file without them.
func TestCheckpointV4SkipsActTables(t *testing.T) {
	params, _ := v4Fixture(t, 36)
	var plain bytes.Buffer
	if err := SaveParamsInt8(&plain, params, nil); err != nil {
		t.Fatal(err)
	}
	want, _ := v4Fixture(t, 75)
	if err := LoadParams(&plain, want); err != nil {
		t.Fatal(err)
	}
	odd := saveV4Mutated(t, params, nil, func(h *checkpointHeader, f *checkpointFile) {
		f.Act = []ActScales{{Name: "a", Scales: nil}, {Name: "a", Scales: []float32{0}}, {Name: ""}}
	})
	got, _ := v4Fixture(t, 74)
	if err := LoadParams(odd, got); err != nil {
		t.Fatalf("v4 file with odd activation tables rejected: %v", err)
	}
	for i, p := range got {
		if p.Value.MaxAbsDiff(want[i].Value) != 0 {
			t.Fatalf("param %q differs when the file carries activation tables", p.Name)
		}
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
		dtype := dtypeI8
		if rows == 1 {
			dtype = dtypeF32
		}
		hdr.Names = append(hdr.Names, p.Name)
		hdr.Rows = append(hdr.Rows, rows)
		hdr.Cols = append(hdr.Cols, cols)
		hdr.Counts = append(hdr.Counts, rows*cols)
		hdr.Dtypes = append(hdr.Dtypes, dtype)
		rec := checkpointRecord{Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Dtype: dtype}
		if dtype == dtypeI8 {
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
		if rec.Dtype == dtypeI8 {
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
				if f.Params[i].Dtype == dtypeF32 {
					f.Params[i].Data8 = []int8{1}
					return
				}
			}
			t.Fatal("fixture has no f32 record")
		}},
		{"dtype disagrees with header", func(h *checkpointHeader, f *checkpointFile) {
			f.Params[i8RecIndex(f)].Dtype = dtypeF32
		}},
		{"f64 records", func(h *checkpointHeader, f *checkpointFile) {
			for i, p := range params {
				h.Dtypes[i] = dtypeF64
				f.Params[i] = checkpointRecord{Name: p.Name, Rows: p.Value.Rows(), Cols: p.Value.Cols(),
					Count: p.Value.Rows() * p.Value.Cols(), Dtype: dtypeF64, Data: p.Value.Data()}
			}
		}},
	}
	for _, tc := range cases {
		dst, _ := v4Fixture(t, 77)
		assertRejected(t, tc.name, saveV4Mutated(t, params, act, tc.mutate).Bytes(), dst)
	}
}
