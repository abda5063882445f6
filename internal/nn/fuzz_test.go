package nn

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// fuzzModel builds the small fixed model every fuzz iteration loads into.
func fuzzModel() []*autograd.Param {
	m := NewMLP(rng.New(11), "fz", MLPConfig{In: 3, Hidden: []int{4}, Out: 2})
	return m.Params()
}

func snapshotParams(params []*autograd.Param) []*tensor.Dense {
	out := make([]*tensor.Dense, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

func paramsEqual(params []*autograd.Param, snap []*tensor.Dense) bool {
	for i, p := range params {
		a, b := p.Value.Data(), snap[i].Data()
		for k := range a {
			if a[k] != b[k] {
				return false
			}
		}
	}
	return true
}

// fuzzSeeds builds the seed corpus shared by FuzzLoadParams and the
// corpus regenerator: a valid v3 checkpoint, truncations, the retired
// headerless v1 and v2 formats, a v3 body behind the v4 magic, a
// bit-flipped header, forged dtype tags, and plain garbage. More cases
// live in testdata/fuzz/FuzzLoadParams.
func fuzzSeeds(fatal func(error)) [][]byte {
	var valid, legacy, validV2 bytes.Buffer
	if err := SaveParams(&valid, fuzzModel()); err != nil {
		fatal(err)
	}
	if err := legacySaveParams(&legacy, fuzzModel()); err != nil {
		fatal(err)
	}
	if err := v2SaveParams(&validV2, fuzzModel()); err != nil {
		fatal(err)
	}
	seeds := [][]byte{
		valid.Bytes(),
		valid.Bytes()[:len(valid.Bytes())/2],
		valid.Bytes()[:8],
		legacy.Bytes(),
		validV2.Bytes(),
		append(checkpointMagicV4[:len(checkpointMagicV4):len(checkpointMagicV4)], valid.Bytes()[8:]...),
		[]byte("not a checkpoint at all"),
		{},
	}
	flipped := append([]byte(nil), valid.Bytes()...)
	if len(flipped) > 20 {
		flipped[20] ^= 0xFF
	}
	seeds = append(seeds, flipped)
	// Overwrite the gob-encoded "f64" dtype tag: a v4-only tag over an
	// f64 payload, and garbage.
	for _, tag := range []string{"f32", "fXX"} {
		mut := append([]byte(nil), valid.Bytes()...)
		if i := bytes.Index(mut, []byte("f64")); i >= 0 {
			copy(mut[i:], tag)
			seeds = append(seeds, mut)
		}
	}
	return seeds
}

// fuzzSeedsV4 builds the quantized-checkpoint seed corpus: a valid v4
// file (i8 payloads, column scales, activation tables), truncations,
// a forged dtype tag, and structurally valid files carrying each class
// of hostile v4 content — out-of-range weights, broken scale tables,
// f64 records — and poisoned activation sections, which the reader
// skips.
func fuzzSeedsV4(fatal func(error)) [][]byte {
	act := []ActScales{
		{Name: "embed", Scales: []float32{0.5, 0.25}},
		{Name: "filter", Scales: []float32{1, 2}},
	}
	var valid bytes.Buffer
	if err := SaveParamsInt8(&valid, fuzzModel(), act); err != nil {
		fatal(err)
	}
	seeds := [][]byte{
		valid.Bytes(),
		valid.Bytes()[:len(valid.Bytes())/2],
		valid.Bytes()[:9], // v4 magic + one byte
	}
	// Forge the gob-encoded "i8" dtype tag into garbage.
	mut := append([]byte(nil), valid.Bytes()...)
	if i := bytes.Index(mut, []byte("i8")); i >= 0 {
		copy(mut[i:], "iX")
		seeds = append(seeds, mut)
	}
	// Structurally valid gob, hostile content: the loader must reject
	// each whole-file, never partially copying weights.
	hostile := []func(*checkpointHeader, *checkpointFile){
		func(h *checkpointHeader, f *checkpointFile) { f.Params[i8RecIndex(f)].Data8[0] = -128 },
		func(h *checkpointHeader, f *checkpointFile) {
			i := i8RecIndex(f)
			f.Params[i].ColScales = f.Params[i].ColScales[:1]
		},
		func(h *checkpointHeader, f *checkpointFile) { f.Params[i8RecIndex(f)].ColScales[0] = 0 },
		func(h *checkpointHeader, f *checkpointFile) {
			i := i8RecIndex(f)
			f.Params[i].Data8 = f.Params[i].Data8[:len(f.Params[i].Data8)-1]
		},
		func(h *checkpointHeader, f *checkpointFile) { f.Act[0].Scales = nil },
		func(h *checkpointHeader, f *checkpointFile) { f.Act[1].Name = f.Act[0].Name },
		func(h *checkpointHeader, f *checkpointFile) {
			for i, rec := range f.Params {
				h.Dtypes[i] = dtypeF64
				f.Params[i] = checkpointRecord{Name: rec.Name, Rows: rec.Rows, Cols: rec.Cols,
					Count: rec.Count, Dtype: dtypeF64, Data: make([]float64, rec.Count)}
			}
		},
	}
	for _, mutate := range hostile {
		buf, err := encodeV4Mutated(fuzzModel(), act, mutate)
		if err != nil {
			fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzLoadParams hammers the checkpoint loader with corrupt input. The
// contract under attack: LoadParams must never panic, and on ANY error
// the model's weights must be byte-for-byte untouched (validate all
// before copying any — no partial writes).
func FuzzLoadParams(f *testing.F) {
	for _, seed := range fuzzSeeds(func(err error) { f.Fatal(err) }) {
		f.Add(seed)
	}
	for _, seed := range fuzzSeedsV4(func(err error) { f.Fatal(err) }) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		params := fuzzModel()
		snap := snapshotParams(params)
		err := LoadParams(bytes.NewReader(data), params)
		if err != nil && !paramsEqual(params, snap) {
			t.Fatalf("LoadParams returned %v but modified the model — partial write on corrupt input", err)
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus when
// REGEN_FUZZ_CORPUS=1 (e.g. after a checkpoint-format change) and
// otherwise verifies every checked-in seed still satisfies the
// no-partial-write contract under direct replay.
func TestRegenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadParams")
	if os.Getenv("REGEN_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// v3-seed-* / v4-seed-* names never collide with fuzzer-found
		// seed-* entries, so regeneration cannot clobber crash-regression
		// cases.
		write := func(prefix string, seeds [][]byte) {
			for i, seed := range seeds {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d", prefix, i)), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		write("v3-seed", fuzzSeeds(func(err error) { t.Fatal(err) }))
		write("v4-seed", fuzzSeedsV4(func(err error) { t.Fatal(err) }))
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no checked-in corpus: %v", err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(raw), "\n", 2)
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a fuzz corpus file", e.Name())
		}
		var data []byte
		if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "[]byte(%q)", &data); err != nil {
			t.Fatalf("%s: cannot parse corpus entry: %v", e.Name(), err)
		}
		params := fuzzModel()
		snap := snapshotParams(params)
		if err := LoadParams(bytes.NewReader(data), params); err != nil && !paramsEqual(params, snap) {
			t.Fatalf("%s: partial write on corrupt input", e.Name())
		}
	}
}

// FuzzLoadParamsMismatchedModel loads fuzzed bytes into a DIFFERENT
// model than the seeds were saved from, so even structurally valid
// checkpoints must be rejected whole.
func FuzzLoadParamsMismatchedModel(f *testing.F) {
	var valid bytes.Buffer
	if err := SaveParams(&valid, fuzzModel()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		other := NewMLP(rng.New(12), "other", MLPConfig{In: 2, Hidden: []int{3}, Out: 1}).Params()
		snap := snapshotParams(other)
		err := LoadParams(bytes.NewReader(data), other)
		if err == nil {
			// The only way a load into the wrong model succeeds is a
			// checkpoint that exactly matches its shape AND names — the
			// fuzzer would have to forge "other.l0.W" etc.; allow it but
			// keep the no-partial-write check meaningful on errors.
			return
		}
		if !paramsEqual(other, snap) {
			t.Fatalf("rejected checkpoint (%v) still modified the model", err)
		}
	})
}
