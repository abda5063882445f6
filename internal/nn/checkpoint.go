package nn

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// The on-disk format. Version 3 files open with an 8-byte magic and a
// gob-encoded header declaring the parameter count and every
// parameter's name, shape, element count, and element dtype — so
// loading a checkpoint into a mismatched model configuration fails
// loudly before a single weight is touched, and each parameter's
// payload may be stored as float64 ("f64") or float32 ("f32", half the
// bytes — the serving-checkpoint format for the float32 inference
// path). Version 2 files (same layout, no dtype tags, f64 payloads)
// and version 1 files (headerless: the gob stream starts immediately)
// remain readable; both load as float64.
//
// Version 4 is the int8 storage format: matrix parameters are stored
// as int8 payloads with per-output-column float32 scales (dtype "i8";
// row-vector parameters — biases, gains, shifts — stay f32) and load
// dequantized, and the file additionally carries the calibrated
// activation-scale tables an int8-activation runtime would need. Every
// older version still loads.
const (
	checkpointVersionLegacy = 1
	checkpointVersionV2     = 2
	checkpointVersion       = 3
	checkpointVersionV4     = 4
)

// Dtype tags carried per parameter by v3+ checkpoints.
const (
	DtypeF64 = "f64"
	DtypeF32 = "f32"
	DtypeI8  = "i8" // v4 only: int8 payload + per-column scales
)

// checkpointMagic opens every v3 checkpoint; checkpointMagicV2 opened
// v2 files and checkpointMagicV4 opens quantized v4 files. Legacy gob
// streams cannot start with these bytes (gob type definitions begin
// differently), so the formats are distinguishable from the first read.
var (
	checkpointMagic   = [8]byte{'R', 'P', 'R', 'O', 'C', 'K', 'P', checkpointVersion}
	checkpointMagicV2 = [8]byte{'R', 'P', 'R', 'O', 'C', 'K', 'P', checkpointVersionV2}
	checkpointMagicV4 = [8]byte{'R', 'P', 'R', 'O', 'C', 'K', 'P', checkpointVersionV4}
)

// ActScales is one named activation-scale table persisted by a v4
// checkpoint: the static per-linear-layer input scales calibration
// produced for one MLP (or, for the GNN, one of its sub-networks /
// aggregation stages). Names are assigned by the exporting pipeline and
// must round-trip verbatim.
type ActScales struct {
	Name   string
	Scales []float32
}

// maxActScaleEntries bounds how many activation-scale tables (and how
// many scales per table) a v4 file may declare — far above anything the
// pipeline writes, low enough that a hostile header cannot demand
// unbounded work.
const maxActScaleEntries = 4096

// checkpointRecord is the serialized form of one parameter. Count is
// redundant with Rows×Cols and with the payload length; the redundancy
// is the point — any disagreement means corruption and is rejected.
// Exactly one of Data (dtype f64), Data32 (dtype f32), and Data8
// (dtype i8, v4) carries the payload; v1/v2 files predate Dtype and the
// narrower payloads and always use Data. An i8 record additionally
// carries one float32 scale per output column (ColScales, length Cols).
type checkpointRecord struct {
	Name       string
	Rows, Cols int
	Count      int    // v2+: expected payload length
	Dtype      string // v3+: DtypeF64, DtypeF32, or DtypeI8; empty in v1/v2 files
	Data       []float64
	Data32     []float32
	Data8      []int8    // v4, dtype i8: quantized payload
	ColScales  []float32 // v4, dtype i8: per-output-column scales
}

// checkpointHeader declares the file's contents ahead of the payload:
// per-param shapes, counts, and (v3) dtypes, so validation never has to
// trust Data.
type checkpointHeader struct {
	NumParams int
	Names     []string
	Rows      []int
	Cols      []int
	Counts    []int
	Dtypes    []string // v3 only; empty in v2 files
}

type checkpointFile struct {
	Version int
	Params  []checkpointRecord
	Act     []ActScales // v4 only: calibrated activation-scale tables
}

// SaveParamsDtype writes parameter values to w: magic, versioned header
// with per-param shape + count + dtype, then the payload (gob), every
// payload at the given element dtype. Gradients and optimizer state are
// not persisted — checkpoints capture the model, not the training run. DtypeF32 rounds each float64 weight to the
// nearest float32 (half the checkpoint bytes) — the demotion the
// float32 serving path applies at construction anyway, so an f32
// checkpoint loaded into an f64 model and served at f32 is
// score-identical to an f64 checkpoint served at f32.
func SaveParamsDtype(w io.Writer, params []*autograd.Param, dtype string) error {
	if dtype != DtypeF64 && dtype != DtypeF32 {
		return fmt.Errorf("nn: unknown checkpoint dtype %q", dtype)
	}
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
		hdr.Dtypes = append(hdr.Dtypes, dtype)
		rec := checkpointRecord{
			Name:  p.Name,
			Rows:  rows,
			Cols:  cols,
			Count: rows * cols,
			Dtype: dtype,
		}
		if dtype == DtypeF32 {
			rec.Data32 = make([]float32, rows*cols)
			for i, v := range p.Value.Data() {
				rec.Data32[i] = float32(v)
			}
		} else {
			rec.Data = p.Value.Data()
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
// bitwise exact), row-vector parameters (biases, LayerNorm
// gains/shifts) stay float32, and act carries the calibrated
// activation-scale tables. act entries must have non-empty unique names
// and positive finite scales.
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
		dtype := DtypeF32
		if storedInt8(p.Value) {
			dtype = DtypeI8
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
		if dtype == DtypeI8 {
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

// validateActScales rejects activation-scale tables a v4 file may not
// carry: unbounded counts, empty or duplicate names, non-positive or
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

// LoadParams restores parameter values from r into params. The header
// (or, for legacy headerless files, the decoded records) is validated
// in full — count, names, shapes, element counts, dtype consistency —
// before any parameter is modified, so a mismatched checkpoint can
// never partially corrupt a model's weights. Float32 payloads widen
// exactly to float64; int8 payloads (v4) dequantize through their
// per-column scales. Activation-scale tables, if present, are
// discarded — use LoadParamsExt to receive them.
func LoadParams(r io.Reader, params []*autograd.Param) error {
	_, err := LoadParamsExt(r, params)
	return err
}

// LoadParamsExt is LoadParams returning the v4 activation-scale tables
// alongside the weights (nil for pre-v4 files), so calibration survives
// a load and re-export.
func LoadParamsExt(r io.Reader, params []*autograd.Param) ([]ActScales, error) {
	br := bufio.NewReader(r)
	peek, err := br.Peek(len(checkpointMagic))
	isV4 := err == nil && bytes.Equal(peek, checkpointMagicV4[:])
	isV3 := err == nil && bytes.Equal(peek, checkpointMagic[:])
	isV2 := err == nil && bytes.Equal(peek, checkpointMagicV2[:])

	var file checkpointFile
	var hdr checkpointHeader
	switch {
	case isV4, isV3, isV2:
		if _, err := br.Discard(len(checkpointMagic)); err != nil {
			return nil, fmt.Errorf("nn: read checkpoint magic: %w", err)
		}
		want := checkpointVersion
		switch {
		case isV4:
			want = checkpointVersionV4
		case isV2:
			want = checkpointVersionV2
		}
		dec := gob.NewDecoder(br)
		if err := dec.Decode(&hdr); err != nil {
			return nil, fmt.Errorf("nn: decode checkpoint header: %w", err)
		}
		if err := validateHeader(hdr, params, want); err != nil {
			return nil, err
		}
		if err := dec.Decode(&file); err != nil {
			return nil, fmt.Errorf("nn: decode checkpoint: %w", err)
		}
		if file.Version != want {
			return nil, fmt.Errorf("nn: checkpoint version %d, want %d", file.Version, want)
		}
	default:
		// Legacy headerless file: the gob stream starts immediately.
		if err := gob.NewDecoder(br).Decode(&file); err != nil {
			return nil, fmt.Errorf("nn: decode checkpoint (not a checkpoint file?): %w", err)
		}
		if file.Version != checkpointVersionLegacy {
			return nil, fmt.Errorf("nn: headerless checkpoint version %d, want %d", file.Version, checkpointVersionLegacy)
		}
	}

	// Validate every record — payloads, scale tables, the activation
	// section — against every parameter before copying any.
	if len(file.Params) != len(params) {
		return nil, fmt.Errorf("nn: checkpoint has %d params, model has %d", len(file.Params), len(params))
	}
	if !isV4 && len(file.Act) != 0 {
		return nil, fmt.Errorf("nn: pre-v4 checkpoint carries %d activation-scale tables", len(file.Act))
	}
	if isV4 {
		if err := validateActScales(file.Act); err != nil {
			return nil, err
		}
	}
	for i, rec := range file.Params {
		p := params[i]
		if rec.Name != p.Name {
			return nil, fmt.Errorf("nn: checkpoint param %d is %q, model expects %q", i, rec.Name, p.Name)
		}
		if rec.Rows != p.Value.Rows() || rec.Cols != p.Value.Cols() {
			return nil, fmt.Errorf("nn: checkpoint param %q is %dx%d, model expects %dx%d",
				rec.Name, rec.Rows, rec.Cols, p.Value.Rows(), p.Value.Cols())
		}
		if isV3 || isV4 {
			if rec.Dtype != hdr.Dtypes[i] {
				return nil, fmt.Errorf("nn: checkpoint param %q is dtype %q but the header declares %q",
					rec.Name, rec.Dtype, hdr.Dtypes[i])
			}
			switch rec.Dtype {
			case DtypeF64:
				if len(rec.Data32) != 0 {
					return nil, fmt.Errorf("nn: checkpoint param %q is dtype f64 but carries %d f32 values", rec.Name, len(rec.Data32))
				}
			case DtypeF32:
				if len(rec.Data) != 0 {
					return nil, fmt.Errorf("nn: checkpoint param %q is dtype f32 but carries %d f64 values", rec.Name, len(rec.Data))
				}
				if len(rec.Data32) != rec.Rows*rec.Cols {
					return nil, fmt.Errorf("nn: checkpoint param %q has %d f32 values for a %dx%d shape",
						rec.Name, len(rec.Data32), rec.Rows, rec.Cols)
				}
			case DtypeI8:
				if !isV4 {
					return nil, fmt.Errorf("nn: checkpoint param %q has unknown dtype %q", rec.Name, rec.Dtype)
				}
				if err := validateI8Record(rec); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("nn: checkpoint param %q has unknown dtype %q", rec.Name, rec.Dtype)
			}
			if rec.Dtype != DtypeI8 && (len(rec.Data8) != 0 || len(rec.ColScales) != 0) {
				return nil, fmt.Errorf("nn: checkpoint param %q is dtype %q but carries int8 payload data", rec.Name, rec.Dtype)
			}
		} else if rec.Dtype != "" || len(rec.Data32) != 0 || len(rec.Data8) != 0 || len(rec.ColScales) != 0 {
			return nil, fmt.Errorf("nn: pre-v3 checkpoint param %q carries dtype metadata", rec.Name)
		}
		if rec.Dtype != DtypeF32 && rec.Dtype != DtypeI8 && len(rec.Data) != rec.Rows*rec.Cols {
			return nil, fmt.Errorf("nn: checkpoint param %q has %d values for a %dx%d shape",
				rec.Name, len(rec.Data), rec.Rows, rec.Cols)
		}
		if (isV4 || isV3 || isV2) && rec.Count != rec.Rows*rec.Cols {
			return nil, fmt.Errorf("nn: checkpoint param %q declares %d values but shape is %dx%d",
				rec.Name, rec.Count, rec.Rows, rec.Cols)
		}
	}
	for i, rec := range file.Params {
		dst := params[i].Value
		switch rec.Dtype {
		case DtypeF32:
			d := dst.Data()
			for k, v := range rec.Data32 {
				d[k] = float64(v)
			}
		case DtypeI8:
			tensor.NewQWeights(rec.Rows, rec.Cols, rec.Data8, rec.ColScales).DequantizeInto(dst)
		default:
			dst.CopyFrom(tensor.FromSlice(rec.Rows, rec.Cols, rec.Data))
		}
	}
	return file.Act, nil
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

// validateHeader checks the v2+ header against the model's
// parameters — the loud, early failure for mismatched configurations.
func validateHeader(hdr checkpointHeader, params []*autograd.Param, version int) error {
	if hdr.NumParams != len(params) {
		return fmt.Errorf("nn: checkpoint header declares %d params, model has %d", hdr.NumParams, len(params))
	}
	if len(hdr.Names) != hdr.NumParams || len(hdr.Rows) != hdr.NumParams ||
		len(hdr.Cols) != hdr.NumParams || len(hdr.Counts) != hdr.NumParams {
		return fmt.Errorf("nn: checkpoint header is internally inconsistent")
	}
	if version >= checkpointVersion && len(hdr.Dtypes) != hdr.NumParams {
		return fmt.Errorf("nn: checkpoint header has %d dtype tags for %d params", len(hdr.Dtypes), hdr.NumParams)
	}
	if version < checkpointVersion && len(hdr.Dtypes) != 0 {
		return fmt.Errorf("nn: v2 checkpoint header carries dtype tags")
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
		if version >= checkpointVersion {
			ok := hdr.Dtypes[i] == DtypeF64 || hdr.Dtypes[i] == DtypeF32 ||
				(version == checkpointVersionV4 && hdr.Dtypes[i] == DtypeI8)
			if !ok {
				return fmt.Errorf("nn: checkpoint header param %q has unknown dtype %q", hdr.Names[i], hdr.Dtypes[i])
			}
		}
	}
	return nil
}

// SaveParamsFile writes a gzip-compressed checkpoint to path.
func SaveParamsFile(path string, params []*autograd.Param) error {
	return SaveParamsFileDtype(path, params, DtypeF64)
}

// SaveParamsFileDtype is SaveParamsFile with an explicit payload dtype
// (see SaveParamsDtype).
func SaveParamsFileDtype(path string, params []*autograd.Param, dtype string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: create checkpoint: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := SaveParamsDtype(zw, params, dtype); err != nil {
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

// LoadParamsFile restores a checkpoint written by SaveParamsFile.
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

// LoadParamsFileExt restores a checkpoint from path and returns its
// activation-scale tables (nil for pre-v4 files).
func LoadParamsFileExt(path string, params []*autograd.Param) ([]ActScales, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: open checkpoint: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("nn: checkpoint gzip: %w", err)
	}
	defer zr.Close()
	return LoadParamsExt(zr, params)
}
