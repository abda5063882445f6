package nn

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/autograd"
	"repro/internal/rng"
)

// v2Magic opened the retired v2 format.
var v2Magic = [8]byte{'R', 'P', 'R', 'O', 'C', 'K', 'P', 2}

// v2SaveParams writes the retired v2 format — v2 magic, header without
// dtype tags, f64 payloads, file version 2.
func v2SaveParams(buf *bytes.Buffer, params []*autograd.Param) error {
	if _, err := buf.Write(v2Magic[:]); err != nil {
		return err
	}
	hdr := checkpointHeader{NumParams: len(params)}
	file := checkpointFile{Version: 2}
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

// v3DtypeBytes writes a v3 file whose every header tag and record is of
// the given dtype: the payload goes in Data32 for "f32" (the retired
// float32 payload) and in Data otherwise.
func v3DtypeBytes(t *testing.T, params []*autograd.Param, dtype string) []byte {
	t.Helper()
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
		hdr.Dtypes = append(hdr.Dtypes, dtype)
		rec := checkpointRecord{Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Dtype: dtype}
		if dtype == dtypeF32 {
			rec.Data32 = make([]float32, rows*cols)
			for i, v := range p.Value.Data() {
				rec.Data32[i] = float32(v)
			}
		} else {
			rec.Data = p.Value.Data()
		}
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

// TestCheckpointV2ReadCompat: a v2 file, which no writer produces any
// more, is refused at its magic and changes no parameter.
func TestCheckpointV2ReadCompat(t *testing.T) {
	m := NewMLP(rng.New(31), "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 2})
	var buf bytes.Buffer
	if err := v2SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(rng.New(32), "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 2})
	assertRejected(t, "v2", buf.Bytes(), m2.Params())
}

func TestCheckpointV3Magic(t *testing.T) {
	m := NewMLP(rng.New(33), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1})
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), checkpointMagic[:]) {
		t.Fatal("v3 checkpoint does not open with the v3 magic")
	}
	if bytes.HasPrefix(buf.Bytes(), v2Magic[:]) {
		t.Fatal("v3 magic collides with v2")
	}
}

// TestCheckpointUnknownDtypeRejected: v3 holds f64 records only. A v3
// file of f32 records (v4's row-vector dtype, and the retired half-size
// v3 payload) or of a garbage dtype is refused, even though each record
// is internally consistent, and changes no parameter.
func TestCheckpointUnknownDtypeRejected(t *testing.T) {
	m := NewMLP(rng.New(37), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1})
	load := NewMLP(rng.New(38), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1})
	for _, dtype := range []string{dtypeF32, "f16"} {
		assertRejected(t, "v3 "+dtype, v3DtypeBytes(t, m.Params(), dtype), load.Params())
	}
}

// TestCheckpointDtypePayloadMismatchRejected covers the f32↔f64
// cross-wiring cases: a record whose dtype tag disagrees with which
// payload array it carries must be rejected before any copy.
func TestCheckpointDtypePayloadMismatchRejected(t *testing.T) {
	m := NewMLP(rng.New(39), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1})
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
			hdr.Dtypes = append(hdr.Dtypes, dtypeF64)
			rec := checkpointRecord{
				Name: p.Name, Rows: rows, Cols: cols, Count: rows * cols, Dtype: dtypeF64, Data: p.Value.Data(),
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
			rec.Dtype = dtypeF32
			rec.Data32 = make([]float32, len(rec.Data))
			rec.Data = nil
		},
		"f64 tag with f32 payload attached": func(rec *checkpointRecord) {
			rec.Data32 = make([]float32, len(rec.Data))
		},
		"f32 tag with f64 payload": func(rec *checkpointRecord) {
			rec.Dtype = dtypeF32 // Data still set, Data32 missing
		},
		"f32 tag with truncated f32 payload": func(rec *checkpointRecord) {
			rec.Dtype = dtypeF32
			rec.Data = nil
			rec.Data32 = make([]float32, 1) // wrong length
		},
	}
	for name, mut := range cases {
		load := NewMLP(rng.New(40), "m", MLPConfig{In: 2, Hidden: []int{3}, Out: 1})
		assertRejected(t, name, build(mut), load.Params())
	}
}
