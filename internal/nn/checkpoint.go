package nn

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// The on-disk formats, one per writer. Both open with an 8-byte magic
// and a gob-encoded header declaring the parameter count and every
// parameter's name, shape, element count and element dtype, so loading
// a checkpoint into a mismatched model configuration fails loudly
// before a single weight is touched.
//
// Version 3 (SaveParams) stores every parameter as float64 ("f64"): the
// training weights, exactly.
//
// Version 4 (SaveParamsInt8) is the int8 storage format: matrix
// parameters are stored as int8 payloads with per-output-column float32
// scales (dtype "i8"; row-vector parameters — biases, gains, shifts —
// stay "f32") and load dequantized. The file also carries the
// activation-scale tables calibration produced; the reader skips them.
//
// Nothing else loads: any other magic is refused before a gob decode.
const (
	checkpointVersion   = 3
	checkpointVersionV4 = 4
)

// Dtype tags carried per parameter.
const (
	dtypeF64 = "f64" // v3 only
	dtypeF32 = "f32" // v4 only: row vectors
	dtypeI8  = "i8"  // v4 only: int8 payload + per-column scales
)

// checkpointMagic opens every v3 checkpoint and checkpointMagicV4 every
// v4 one.
var (
	checkpointMagic   = [8]byte{'R', 'P', 'R', 'O', 'C', 'K', 'P', checkpointVersion}
	checkpointMagicV4 = [8]byte{'R', 'P', 'R', 'O', 'C', 'K', 'P', checkpointVersionV4}
)

// ActScales is one named activation-scale table a v4 checkpoint
// carries: the static per-linear-layer input scales calibration
// produced for one MLP (or, for the GNN, one of its sub-networks /
// aggregation stages). Names are assigned by the exporting pipeline.
// LoadParams skips the tables.
type ActScales struct {
	Name   string
	Scales []float32
}

// maxActScaleEntries bounds how many activation-scale tables (and how
// many scales per table) SaveParamsInt8 writes — far above anything the
// pipeline produces.
const maxActScaleEntries = 4096

// checkpointRecord is the serialized form of one parameter. Count is
// redundant with Rows×Cols and with the payload length; the redundancy
// is the point — any disagreement means corruption and is rejected.
// Exactly one of Data (dtype f64, v3), Data32 (dtype f32, v4) and Data8
// (dtype i8, v4) carries the payload. An i8 record additionally carries
// one float32 scale per output column (ColScales, length Cols).
type checkpointRecord struct {
	Name       string
	Rows, Cols int
	Count      int    // expected payload length
	Dtype      string // dtypeF64 (v3), dtypeF32 or dtypeI8 (v4)
	Data       []float64
	Data32     []float32
	Data8      []int8    // dtype i8: quantized payload
	ColScales  []float32 // dtype i8: per-output-column scales
}

// checkpointHeader declares the file's contents ahead of the payload:
// per-param shapes, counts and dtypes, so validation never has to trust
// the records.
type checkpointHeader struct {
	NumParams int
	Names     []string
	Rows      []int
	Cols      []int
	Counts    []int
	Dtypes    []string
}

// checkpointFile is the payload the writers encode. Act is written by
// v4 only.
type checkpointFile struct {
	Version int
	Params  []checkpointRecord
	Act     []ActScales
}

// checkpointLoad is what the reader decodes a payload into: without a
// field for Act, gob skips a v4 file's activation-scale tables.
type checkpointLoad struct {
	Version int
	Params  []checkpointRecord
}

// SaveParams writes a v3 checkpoint of params to w: magic, header, then
// every parameter's float64 values. Gradients and optimizer state are
// not persisted — checkpoints capture the model, not the training run.
func SaveParams(w io.Writer, params []*autograd.Param) error {
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint magic: %w", err)
	}
	hdr := checkpointHeader{NumParams: len(params)}
	file := checkpointFile{Version: checkpointVersion}
	for _, p := range params {
		rows, cols := p.Value.Rows(), p.Value.Cols()
		hdr.Names = append(hdr.Names, p.Name)
		hdr.Rows = append(hdr.Rows, rows)
		hdr.Cols = append(hdr.Cols, cols)
		hdr.Counts = append(hdr.Counts, rows*cols)
		hdr.Dtypes = append(hdr.Dtypes, dtypeF64)
		file.Params = append(file.Params, checkpointRecord{
			Name:  p.Name,
			Rows:  rows,
			Cols:  cols,
			Count: rows * cols,
			Dtype: dtypeF64,
			Data:  p.Value.Data(),
		})
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&hdr); err != nil {
		return fmt.Errorf("nn: encode checkpoint header: %w", err)
	}
	if err := enc.Encode(&file); err != nil {
		return fmt.Errorf("nn: encode checkpoint: %w", err)
	}
	return nil
}

// storedInt8 reports whether checkpoint v4 stores a parameter of this
// shape as int8. Biases and norm parameters (row vectors) are a
// vanishing fraction of the bytes and add directly into the epilogue in
// float — quantizing them buys nothing and costs accuracy — so they
// stay float32.
func storedInt8(m *tensor.Dense) bool { return m.Rows() != 1 }

// SnapInt8 sets every dst parameter to the value a v4 checkpoint of the
// matching src parameter loads back as: matrices quantized per output
// column and dequantized (tensor.QWeights.DequantizeInto), row vectors
// rounded to float32. It is what Int8 serving runs, so a reconstructor
// and one loaded from its own v4 export serve the same weights. dst and
// src must match in count and shape; src is only read.
func SnapInt8(dst, src []*autograd.Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: SnapInt8 of %d params into %d", len(src), len(dst)))
	}
	for i, p := range src {
		d := dst[i].Value
		if storedInt8(p.Value) {
			tensor.QuantizeWeights(p.Value).DequantizeInto(d)
			continue
		}
		if d.Rows() != p.Value.Rows() || d.Cols() != p.Value.Cols() {
			panic(fmt.Sprintf("nn: SnapInt8 param %q shape mismatch", p.Name))
		}
		for k, v := range p.Value.Data() {
			d.Data()[k] = float64(float32(v))
		}
	}
}

// SaveParamsInt8 writes a v4 quantized checkpoint: every matrix
// parameter is quantized per output column to int8 + float32 scales
// (via tensor.QuantizeWeights, so a load/requantize round trip is
// bitwise exact), row-vector parameters (the biases) stay float32, and
// act carries the calibrated activation-scale tables. act entries must
// have non-empty unique names and positive finite scales.
func SaveParamsInt8(w io.Writer, params []*autograd.Param, act []ActScales) error {
	if err := validateActScales(act); err != nil {
		return err
	}
	if _, err := w.Write(checkpointMagicV4[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint magic: %w", err)
	}
	hdr := checkpointHeader{NumParams: len(params)}
	file := checkpointFile{Version: checkpointVersionV4}
	for _, a := range act {
		file.Act = append(file.Act, ActScales{Name: a.Name, Scales: append([]float32(nil), a.Scales...)})
	}
	for _, p := range params {
		rows, cols := p.Value.Rows(), p.Value.Cols()
		dtype := dtypeF32
		if storedInt8(p.Value) {
			dtype = dtypeI8
		}
		hdr.Names = append(hdr.Names, p.Name)
		hdr.Rows = append(hdr.Rows, rows)
		hdr.Cols = append(hdr.Cols, cols)
		hdr.Counts = append(hdr.Counts, rows*cols)
		hdr.Dtypes = append(hdr.Dtypes, dtype)
		rec := checkpointRecord{
			Name:  p.Name,
			Rows:  rows,
			Cols:  cols,
			Count: rows * cols,
			Dtype: dtype,
		}
		if dtype == dtypeI8 {
			q := tensor.QuantizeWeights(p.Value)
			rec.Data8 = q.Data()
			rec.ColScales = q.ColScale
		} else {
			rec.Data32 = make([]float32, rows*cols)
			for i, v := range p.Value.Data() {
				rec.Data32[i] = float32(v)
			}
		}
		file.Params = append(file.Params, rec)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&hdr); err != nil {
		return fmt.Errorf("nn: encode checkpoint header: %w", err)
	}
	if err := enc.Encode(&file); err != nil {
		return fmt.Errorf("nn: encode checkpoint: %w", err)
	}
	return nil
}

// validateActScales rejects activation-scale tables SaveParamsInt8 does
// not write: unbounded counts, empty or duplicate names, non-positive or
// non-finite scales.
func validateActScales(act []ActScales) error {
	if len(act) > maxActScaleEntries {
		return fmt.Errorf("nn: checkpoint declares %d activation-scale tables (max %d)", len(act), maxActScaleEntries)
	}
	seen := make(map[string]bool, len(act))
	for _, a := range act {
		if a.Name == "" {
			return fmt.Errorf("nn: checkpoint activation-scale table with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("nn: duplicate checkpoint activation-scale table %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Scales) == 0 || len(a.Scales) > maxActScaleEntries {
			return fmt.Errorf("nn: activation-scale table %q has %d scales", a.Name, len(a.Scales))
		}
		for i, s := range a.Scales {
			if !(s > 0) || math.IsInf(float64(s), 0) {
				return fmt.Errorf("nn: activation-scale table %q scale %d is %v", a.Name, i, s)
			}
		}
	}
	return nil
}

// LoadParams restores parameter values from r into params. It reads
// what SaveParams (v3, f64 records) and SaveParamsInt8 (v4, f32 and i8
// records) write and refuses any other magic before decoding. The
// header and every record are validated in full — count, names, shapes,
// element counts, dtypes, payloads — before any parameter is modified,
// so a rejected checkpoint never partially overwrites a model. Int8
// payloads dequantize through their per-column scales and float32 ones
// widen exactly; a v4 file's activation-scale tables are skipped.
func LoadParams(r io.Reader, params []*autograd.Param) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: read checkpoint magic: %w", err)
	}
	var version int
	switch magic {
	case checkpointMagic:
		version = checkpointVersion
	case checkpointMagicV4:
		version = checkpointVersionV4
	default:
		return fmt.Errorf("nn: not a v3 or v4 checkpoint (magic %q)", magic[:])
	}
	dec := gob.NewDecoder(r)
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("nn: decode checkpoint header: %w", err)
	}
	if err := validateHeader(hdr, params, version); err != nil {
		return err
	}
	var file checkpointLoad
	if err := dec.Decode(&file); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	if file.Version != version {
		return fmt.Errorf("nn: checkpoint version %d, want %d", file.Version, version)
	}
	if len(file.Params) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", len(file.Params), len(params))
	}
	for i, rec := range file.Params {
		if err := validateRecord(rec, params[i], hdr.Dtypes[i]); err != nil {
			return err
		}
	}
	for i, rec := range file.Params {
		dst := params[i].Value
		switch rec.Dtype {
		case dtypeF32:
			d := dst.Data()
			for k, v := range rec.Data32 {
				d[k] = float64(v)
			}
		case dtypeI8:
			tensor.NewQWeights(rec.Rows, rec.Cols, rec.Data8, rec.ColScales).DequantizeInto(dst)
		default:
			dst.CopyFrom(tensor.FromSlice(rec.Rows, rec.Cols, rec.Data))
		}
	}
	return nil
}

// validateRecord checks one decoded record against its model parameter
// and the dtype the (already validated) header declares for it: the
// record carries exactly that dtype's payload at the declared length.
func validateRecord(rec checkpointRecord, p *autograd.Param, dtype string) error {
	if rec.Name != p.Name {
		return fmt.Errorf("nn: checkpoint param %q, model expects %q", rec.Name, p.Name)
	}
	if rec.Rows != p.Value.Rows() || rec.Cols != p.Value.Cols() {
		return fmt.Errorf("nn: checkpoint param %q is %dx%d, model expects %dx%d",
			rec.Name, rec.Rows, rec.Cols, p.Value.Rows(), p.Value.Cols())
	}
	n := rec.Rows * rec.Cols
	if rec.Count != n {
		return fmt.Errorf("nn: checkpoint param %q declares %d values but shape is %dx%d",
			rec.Name, rec.Count, rec.Rows, rec.Cols)
	}
	if rec.Dtype != dtype {
		return fmt.Errorf("nn: checkpoint param %q is dtype %q but the header declares %q", rec.Name, rec.Dtype, dtype)
	}
	var ok bool
	switch dtype {
	case dtypeF64:
		ok = len(rec.Data) == n && len(rec.Data32)+len(rec.Data8)+len(rec.ColScales) == 0
	case dtypeF32:
		ok = len(rec.Data32) == n && len(rec.Data)+len(rec.Data8)+len(rec.ColScales) == 0
	case dtypeI8:
		return validateI8Record(rec)
	}
	if !ok {
		return fmt.Errorf("nn: checkpoint param %q does not carry exactly %d %s values", rec.Name, n, dtype)
	}
	return nil
}

// validateI8Record checks one v4 int8 record: exact payload length, one
// positive finite scale per column, values inside the symmetric ±127
// range (−128 is never written by the exporter, so its presence means
// the file is corrupt or hostile).
func validateI8Record(rec checkpointRecord) error {
	if len(rec.Data) != 0 || len(rec.Data32) != 0 {
		return fmt.Errorf("nn: checkpoint param %q is dtype i8 but carries float payload data", rec.Name)
	}
	if len(rec.Data8) != rec.Rows*rec.Cols {
		return fmt.Errorf("nn: checkpoint param %q has %d int8 values for a %dx%d shape",
			rec.Name, len(rec.Data8), rec.Rows, rec.Cols)
	}
	if len(rec.ColScales) != rec.Cols {
		return fmt.Errorf("nn: checkpoint param %q has %d column scales for %d columns",
			rec.Name, len(rec.ColScales), rec.Cols)
	}
	for j, s := range rec.ColScales {
		if !(s > 0) || math.IsInf(float64(s), 0) {
			return fmt.Errorf("nn: checkpoint param %q column %d scale is %v", rec.Name, j, s)
		}
	}
	for k, q := range rec.Data8 {
		if q == -128 {
			return fmt.Errorf("nn: checkpoint param %q value %d is -128, outside the symmetric range", rec.Name, k)
		}
	}
	return nil
}

// validateHeader checks the header against the model's parameters —
// the loud, early failure for mismatched configurations — and each
// dtype against the version: f64 in v3, f32 or i8 in v4.
func validateHeader(hdr checkpointHeader, params []*autograd.Param, version int) error {
	if hdr.NumParams != len(params) {
		return fmt.Errorf("nn: checkpoint header declares %d params, model has %d", hdr.NumParams, len(params))
	}
	if len(hdr.Names) != hdr.NumParams || len(hdr.Rows) != hdr.NumParams ||
		len(hdr.Cols) != hdr.NumParams || len(hdr.Counts) != hdr.NumParams || len(hdr.Dtypes) != hdr.NumParams {
		return fmt.Errorf("nn: checkpoint header is internally inconsistent")
	}
	for i, p := range params {
		if hdr.Names[i] != p.Name {
			return fmt.Errorf("nn: checkpoint header param %d is %q, model expects %q", i, hdr.Names[i], p.Name)
		}
		if hdr.Rows[i] != p.Value.Rows() || hdr.Cols[i] != p.Value.Cols() {
			return fmt.Errorf("nn: checkpoint header param %q is %dx%d, model expects %dx%d",
				hdr.Names[i], hdr.Rows[i], hdr.Cols[i], p.Value.Rows(), p.Value.Cols())
		}
		if hdr.Counts[i] != hdr.Rows[i]*hdr.Cols[i] {
			return fmt.Errorf("nn: checkpoint header param %q count %d disagrees with shape %dx%d",
				hdr.Names[i], hdr.Counts[i], hdr.Rows[i], hdr.Cols[i])
		}
		d := hdr.Dtypes[i]
		if version == checkpointVersion && d != dtypeF64 ||
			version == checkpointVersionV4 && d != dtypeF32 && d != dtypeI8 {
			return fmt.Errorf("nn: v%d checkpoint header param %q has dtype %q", version, hdr.Names[i], d)
		}
	}
	return nil
}

// SaveParamsFile writes a gzip-compressed v3 checkpoint to path (see
// SaveParams).
func SaveParamsFile(path string, params []*autograd.Param) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: create checkpoint: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := SaveParams(zw, params); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("nn: close checkpoint gzip: %w", err)
	}
	return f.Close()
}

// SaveParamsFileInt8 writes a gzip-compressed v4 quantized checkpoint
// to path (see SaveParamsInt8).
func SaveParamsFileInt8(path string, params []*autograd.Param, act []ActScales) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: create checkpoint: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := SaveParamsInt8(zw, params, act); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("nn: close checkpoint gzip: %w", err)
	}
	return f.Close()
}

// LoadParamsFile restores a checkpoint written by SaveParamsFile or
// SaveParamsFileInt8 (see LoadParams).
func LoadParamsFile(path string, params []*autograd.Param) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("nn: open checkpoint: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("nn: checkpoint gzip: %w", err)
	}
	defer zr.Close()
	return LoadParams(zr, params)
}
