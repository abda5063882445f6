package nn

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"repro/internal/autograd"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	r := rng.New(1)
	m := NewMLP(r, "m", MLPConfig{In: 3, Hidden: []int{8}, Out: 2, Activation: ReLU, LayerNorm: true})
	params := m.Params()
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	// Restore into a differently initialized twin.
	m2 := NewMLP(rng.New(99), "m", MLPConfig{In: 3, Hidden: []int{8}, Out: 2, Activation: ReLU, LayerNorm: true})
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range m2.Params() {
		if p.Value.MaxAbsDiff(params[i].Value) != 0 {
			t.Fatalf("param %d differs after restore", i)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	r := rng.New(2)
	m := NewMLP(r, "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: Tanh})
	path := filepath.Join(t.TempDir(), "model.ckpt.gz")
	if err := SaveParamsFile(path, m.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(rng.New(3), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: Tanh})
	if err := LoadParamsFile(path, m2.Params()); err != nil {
		t.Fatal(err)
	}
	if m2.Params()[0].Value.MaxAbsDiff(m.Params()[0].Value) != 0 {
		t.Fatal("file round trip lost values")
	}
}

func TestCheckpointValidation(t *testing.T) {
	r := rng.New(4)
	m := NewMLP(r, "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	// Wrong shape.
	other := NewMLP(r, "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 1, Activation: ReLU})
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("shape mismatch not detected")
	}
	// Wrong name.
	renamed := NewMLP(r, "other", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	if err := LoadParams(bytes.NewReader(buf.Bytes()), renamed.Params()); err == nil {
		t.Fatal("name mismatch not detected")
	}
	// Wrong count.
	short := []*autograd.Param{m.Params()[0]}
	if err := LoadParams(bytes.NewReader(buf.Bytes()), short); err == nil {
		t.Fatal("count mismatch not detected")
	}
}

// legacySaveParams writes the headerless v1 format: a bare gob stream.
func legacySaveParams(buf *bytes.Buffer, params []*autograd.Param) error {
	file := checkpointFile{Version: checkpointVersionLegacy}
	for _, p := range params {
		file.Params = append(file.Params, checkpointRecord{
			Name: p.Name,
			Rows: p.Value.Rows(),
			Cols: p.Value.Cols(),
			Data: p.Value.Data(),
		})
	}
	return gob.NewEncoder(buf).Encode(&file)
}

func TestCheckpointMagicHeader(t *testing.T) {
	m := NewMLP(rng.New(5), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), checkpointMagic[:]) {
		t.Fatal("v2 checkpoint does not open with the magic header")
	}
}

func TestCheckpointLegacyReadCompat(t *testing.T) {
	m := NewMLP(rng.New(6), "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 2, Activation: Tanh})
	var buf bytes.Buffer
	if err := legacySaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(rng.New(66), "m", MLPConfig{In: 3, Hidden: []int{4}, Out: 2, Activation: Tanh})
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatalf("headerless v1 checkpoint rejected: %v", err)
	}
	for i, p := range m2.Params() {
		if p.Value.MaxAbsDiff(m.Params()[i].Value) != 0 {
			t.Fatalf("param %d differs after legacy restore", i)
		}
	}
}

// TestCheckpointNoPartialMutation is the point of the header: loading a
// mismatched checkpoint must not modify ANY parameter, not fail halfway
// through with the early parameters already overwritten.
func TestCheckpointNoPartialMutation(t *testing.T) {
	save := NewMLP(rng.New(7), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	// Mismatch only in the LAST parameter's shape: same layer count,
	// different output width — earlier params agree in name and shape.
	load := NewMLP(rng.New(77), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 3, Activation: ReLU})
	before := make([]*tensor.Dense, len(load.Params()))
	for i, p := range load.Params() {
		before[i] = p.Value.Clone()
	}
	for _, format := range []struct {
		name string
		save func(*bytes.Buffer) error
	}{
		{"v2", func(b *bytes.Buffer) error { return SaveParams(b, save.Params()) }},
		{"legacy", func(b *bytes.Buffer) error { return legacySaveParams(b, save.Params()) }},
	} {
		var buf bytes.Buffer
		if err := format.save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := LoadParams(&buf, load.Params()); err == nil {
			t.Fatalf("%s: mismatched checkpoint accepted", format.name)
		}
		for i, p := range load.Params() {
			if p.Value.MaxAbsDiff(before[i]) != 0 {
				t.Fatalf("%s: param %d mutated by a rejected checkpoint", format.name, i)
			}
		}
	}
}

func TestCheckpointGarbageRejected(t *testing.T) {
	m := NewMLP(rng.New(8), "m", MLPConfig{In: 2, Hidden: []int{4}, Out: 1, Activation: ReLU})
	garbage := []byte("definitely not a checkpoint file, not even close")
	if err := LoadParams(bytes.NewReader(garbage), m.Params()); err == nil {
		t.Fatal("garbage accepted as checkpoint")
	}
}
