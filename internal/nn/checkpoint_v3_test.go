package nn

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/autograd"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// v2SaveParams writes the historical v2 format — v2 magic, header
// without dtype tags, f64 payloads, file version 2 — so read
// compatibility with pre-dtype checkpoints stays pinned now that the
// writer emits v3.
func v2SaveParams(buf *bytes.Buffer, params []*autograd.Param) error {
	if _, err := buf.Write(checkpointMagicV2[:]); err != nil {
		return err
	}
	hdr := checkpointHeader{NumParams: len(params)}
	file := checkpointFile{Version: checkpointVersionV2}
	for _, p := range params {
		rows, cols := p.Value.Rows(), p.Value.Cols()
		hdr.Names = append(hdr.Names, p.Name)
		hdr.Rows = append(hdr.Rows, rows)
		hdr.Cols = append(hdr.Cols, cols)
		hdr.Counts = append(hdr.Counts, rows*cols)
		file.Params = append(file.Params, checkpointRecord{
			Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Data: p.Value.Data(),
		})
	}
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(&hdr); err != nil {
		return err
	}
	return enc.Encode(&file)
}

func TestCheckpointV2ReadCompat(t *testing.T) {
	m := NewMLP(rng.New(31), "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 2, Activation: ReLU, LayerNorm: true})
	var buf bytes.Buffer
	if err := v2SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(rng.New(32), "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 2, Activation: ReLU, LayerNorm: true})
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatalf("v2 checkpoint rejected: %v", err)
	}
	for i, p := range m2.Params() {
		if p.Value.MaxAbsDiff(m.Params()[i].Value) != 0 {
			t.Fatalf("param %d differs after v2 restore", i)
		}
	}
}

func TestCheckpointV3Magic(t *testing.T) {
	m := NewMLP(rng.New(33), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1, Activation: ReLU})
	var buf bytes.Buffer
	if err := SaveParamsDtype(&buf, m.Params(), DtypeF64); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), checkpointMagic[:]) {
		t.Fatal("v3 checkpoint does not open with the v3 magic")
	}
	if bytes.HasPrefix(buf.Bytes(), checkpointMagicV2[:]) {
		t.Fatal("v3 magic collides with v2")
	}
}

// TestCheckpointF32RoundTrip: an f32-dtype checkpoint loads with every
// weight equal to the one-step f64→f32→f64 rounding of the original —
// exactly the demotion the float32 serving path applies, so serving an
// f32 checkpoint at f32 is score-identical to serving the f64 original.
func TestCheckpointF32RoundTrip(t *testing.T) {
	m := NewMLP(rng.New(34), "m", MLPConfig{In: 3, Hidden: []int{5}, Out: 2, Activation: Tanh, LayerNorm: true})
	var buf bytes.Buffer
	if err := SaveParamsDtype(&buf, m.Params(), DtypeF32); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(rng.New(35), "m", MLPConfig{In: 3, Hidden: []int{5}, Out: 2, Activation: Tanh, LayerNorm: true})
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatalf("f32 checkpoint rejected: %v", err)
	}
	for i, p := range m2.Params() {
		orig := m.Params()[i].Value.Data()
		for k, v := range p.Value.Data() {
			if v != float64(float32(orig[k])) {
				t.Fatalf("param %d elem %d: %v, want rounded %v", i, k, v, float64(float32(orig[k])))
			}
		}
	}
}

// TestCheckpointF32Smaller sanity-checks the point of the f32 dtype:
// the serialized payload shrinks (roughly halves for weight-dominated
// files).
func TestCheckpointF32Smaller(t *testing.T) {
	m := NewMLP(rng.New(36), "m", MLPConfig{In: 32, Hidden: []int{64}, Out: 32, Activation: ReLU})
	var f64buf, f32buf bytes.Buffer
	if err := SaveParamsDtype(&f64buf, m.Params(), DtypeF64); err != nil {
		t.Fatal(err)
	}
	if err := SaveParamsDtype(&f32buf, m.Params(), DtypeF32); err != nil {
		t.Fatal(err)
	}
	if f32buf.Len() >= f64buf.Len()*3/4 {
		t.Fatalf("f32 checkpoint %dB not meaningfully smaller than f64 %dB", f32buf.Len(), f64buf.Len())
	}
}

func TestCheckpointUnknownDtypeRejected(t *testing.T) {
	if err := SaveParamsDtype(&bytes.Buffer{}, nil, "f16"); err == nil {
		t.Fatal("unknown save dtype accepted")
	}

	// Hand-craft a v3 file whose dtype tag is garbage; it must be
	// rejected with no parameter modified.
	m := NewMLP(rng.New(37), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1, Activation: ReLU})
	params := m.Params()
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	hdr := checkpointHeader{NumParams: len(params)}
	file := checkpointFile{Version: checkpointVersion}
	for _, p := range params {
		rows, cols := p.Value.Rows(), p.Value.Cols()
		hdr.Names = append(hdr.Names, p.Name)
		hdr.Rows = append(hdr.Rows, rows)
		hdr.Cols = append(hdr.Cols, cols)
		hdr.Counts = append(hdr.Counts, rows*cols)
		hdr.Dtypes = append(hdr.Dtypes, "f16") // not a real dtype
		file.Params = append(file.Params, checkpointRecord{
			Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Dtype: "f16", Data: p.Value.Data(),
		})
	}
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&file); err != nil {
		t.Fatal(err)
	}

	load := NewMLP(rng.New(38), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1, Activation: ReLU})
	before := make([]*tensor.Dense, len(load.Params()))
	for i, p := range load.Params() {
		before[i] = p.Value.Clone()
	}
	if err := LoadParams(bytes.NewReader(buf.Bytes()), load.Params()); err == nil {
		t.Fatal("garbage dtype accepted")
	}
	for i, p := range load.Params() {
		if p.Value.MaxAbsDiff(before[i]) != 0 {
			t.Fatalf("param %d mutated by rejected dtype", i)
		}
	}
}

// TestCheckpointDtypePayloadMismatchRejected covers the f32↔f64
// cross-wiring cases: a record whose dtype tag disagrees with which
// payload array it carries must be rejected before any copy.
func TestCheckpointDtypePayloadMismatchRejected(t *testing.T) {
	m := NewMLP(rng.New(39), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1, Activation: ReLU})
	params := m.Params()

	build := func(mut func(rec *checkpointRecord)) []byte {
		var buf bytes.Buffer
		buf.Write(checkpointMagic[:])
		hdr := checkpointHeader{NumParams: len(params)}
		file := checkpointFile{Version: checkpointVersion}
		for _, p := range params {
			rows, cols := p.Value.Rows(), p.Value.Cols()
			hdr.Names = append(hdr.Names, p.Name)
			hdr.Rows = append(hdr.Rows, rows)
			hdr.Cols = append(hdr.Cols, cols)
			hdr.Counts = append(hdr.Counts, rows*cols)
			hdr.Dtypes = append(hdr.Dtypes, DtypeF64)
			rec := checkpointRecord{
				Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Dtype: DtypeF64, Data: p.Value.Data(),
			}
			mut(&rec)
			file.Params = append(file.Params, rec)
		}
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(&hdr); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&file); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := map[string]func(rec *checkpointRecord){
		"record dtype disagrees with header tag": func(rec *checkpointRecord) {
			// Header keeps f64; record claims f32 with a matching f32
			// payload — internally consistent but contradicting the
			// validated header, which must win.
			rec.Dtype = DtypeF32
			rec.Data32 = make([]float32, len(rec.Data))
			rec.Data = nil
		},
		"f64 tag with f32 payload attached": func(rec *checkpointRecord) {
			rec.Data32 = make([]float32, len(rec.Data))
		},
		"f32 tag with f64 payload": func(rec *checkpointRecord) {
			rec.Dtype = DtypeF32 // Data still set, Data32 missing
		},
		"f32 tag with truncated f32 payload": func(rec *checkpointRecord) {
			rec.Dtype = DtypeF32
			rec.Data = nil
			rec.Data32 = make([]float32, 1) // wrong length
		},
	}
	for name, mut := range cases {
		load := NewMLP(rng.New(40), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1, Activation: ReLU})
		before := make([]*tensor.Dense, len(load.Params()))
		for i, p := range load.Params() {
			before[i] = p.Value.Clone()
		}
		if err := LoadParams(bytes.NewReader(build(mut)), load.Params()); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		for i, p := range load.Params() {
			if p.Value.MaxAbsDiff(before[i]) != 0 {
				t.Fatalf("%s: param %d mutated", name, i)
			}
		}
	}
}
