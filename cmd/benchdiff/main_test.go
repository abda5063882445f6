package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func writeRecord(t *testing.T, rec *record) string {
	t.Helper()
	blob, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoad(t *testing.T) {
	rec := &record{MaxProcs: 4, Benchmarks: []benchResult{
		{Name: "BenchmarkX", NsPerOp: 100, BytesPerOp: 800, AllocsPerOp: 2},
	}}
	got, err := load(writeRecord(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxProcs != 4 || len(got.Benchmarks) != 1 || got.Benchmarks[0].NsPerOp != 100 {
		t.Fatalf("load round trip: %+v", got)
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := load(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestPct(t *testing.T) {
	if got := pct(100, 150); got != 50 {
		t.Fatalf("pct(100,150) = %v", got)
	}
	if got := pct(0, 150); got != 0 {
		t.Fatalf("pct(0,150) = %v", got)
	}
	if got := pct(200, 100); got != -50 {
		t.Fatalf("pct(200,100) = %v", got)
	}
}

// pairRecord is the BENCH_5-shaped fixture: suffix twins where f32
// halves B/op, one pair that misses the gate, and an unpaired row.
func pairRecord() *record {
	return &record{Benchmarks: []benchResult{
		{Name: "BenchmarkSpMM_f64", NsPerOp: 1000, BytesPerOp: 1000},
		{Name: "BenchmarkSpMM_f32", NsPerOp: 700, BytesPerOp: 500},
		{Name: "BenchmarkMatMul_f64", NsPerOp: 2000, BytesPerOp: 2000},
		{Name: "BenchmarkMatMul_f32", NsPerOp: 1800, BytesPerOp: 1900}, // only 5% drop
		{Name: "BenchmarkLonely_f64", NsPerOp: 10, BytesPerOp: 10},
		{Name: "BenchmarkOther", NsPerOp: 5, BytesPerOp: 5},
	}}
}

func TestRunPairModeGate(t *testing.T) {
	rec := pairRecord()
	// No gate: nothing fails.
	if got := runPairMode(rec, "_f64", "_f32", 0, nil); got != 0 {
		t.Fatalf("ungated pair mode reported %d failures", got)
	}
	// 25%% gate: the MatMul pair (5%% drop) fails, SpMM (50%%) passes.
	if got := runPairMode(rec, "_f64", "_f32", 25, nil); got != 1 {
		t.Fatalf("gated pair mode reported %d failures, want 1", got)
	}
}

func TestRunPairModeMatchFilter(t *testing.T) {
	rec := pairRecord()
	// Restricting to SpMM hides the failing MatMul pair.
	re := mustCompile(t, "SpMM")
	if got := runPairMode(rec, "_f64", "_f32", 25, re); got != 0 {
		t.Fatalf("filtered pair mode reported %d failures, want 0", got)
	}
}

func mustCompile(t *testing.T, expr string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	return re
}
