// Command bench runs the repository's benchmark suite programmatically —
// the experiment regenerations of bench_test.go plus the sparse/dense
// kernel microbenchmarks — and emits a BENCH_*.json perf-trajectory
// record (ns/op, B/op, allocs/op per benchmark). PERF.md documents the
// schema and protocol.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_1.json [-baseline BENCH_baseline.json] [-quick] [-procs 1,2,4]
//
// With -baseline, the named prior record is embedded and per-benchmark
// improvement percentages are computed against it. With -procs, the
// kernel and Reconstruct benchmarks are additionally re-run at each
// listed GOMAXPROCS and recorded under procs_sweep with speedup_vs_p1
// metrics — suppressed (speedup_claims_deferred) on a single-CPU host,
// where GOMAXPROCS scaling measures scheduler overhead rather than
// parallelism. cmd/benchdiff compares two records mechanically.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/gpumem"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/workspace"
	"repro/recon"
)

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Improvement compares a benchmark against its baseline (positive = better).
type Improvement struct {
	Name          string  `json:"name"`
	NsPercent     float64 `json:"ns_per_op_pct"`
	BytesPercent  float64 `json:"bytes_per_op_pct"`
	AllocsPercent float64 `json:"allocs_per_op_pct"`
}

// SweepRun is one GOMAXPROCS setting's pass over the sweep suite.
type SweepRun struct {
	Procs      int           `json:"procs"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// ProcsSweep records the -procs GOMAXPROCS scaling sweep. Entries at
// p>1 carry a speedup_vs_p1 metric — unless the host has only one CPU,
// in which case SpeedupClaimsDeferred documents why no speedup is
// claimed (a 1-CPU container cannot demonstrate parallel headroom; the
// sweep still records per-procs timings so overhead is visible).
type ProcsSweep struct {
	NumCPU                int        `json:"num_cpu"`
	Procs                 []int      `json:"procs"`
	SpeedupClaimsDeferred bool       `json:"speedup_claims_deferred,omitempty"`
	DeferredReason        string     `json:"deferred_reason,omitempty"`
	Runs                  []SweepRun `json:"runs"`
}

// Record is the BENCH_*.json schema (see PERF.md).
type Record struct {
	SchemaVersion int           `json:"schema_version"`
	Date          string        `json:"date"`
	GoVersion     string        `json:"go_version"`
	GOOS          string        `json:"goos"`
	GOARCH        string        `json:"goarch"`
	MaxProcs      int           `json:"maxprocs"`
	NumCPU        int           `json:"num_cpu"`
	Protocol      string        `json:"protocol"`
	Benchmarks    []BenchResult `json:"benchmarks"`
	Sweep         *ProcsSweep   `json:"procs_sweep,omitempty"`
	Workspace     struct {
		Gets       int64 `json:"gets"`
		Puts       int64 `json:"puts"`
		Misses     int64 `json:"misses"`
		InUseBytes int64 `json:"in_use_bytes"`
	} `json:"workspace"`
	WorkspaceFitsA100 bool          `json:"workspace_fits_a100_reserve"`
	Baseline          *Record       `json:"baseline,omitempty"`
	Improvements      []Improvement `json:"improvements,omitempty"`
}

func benchOptions() repro.ExperimentOptions {
	return repro.ExperimentOptions{
		Scale:           0.02,
		Events:          4,
		Epochs:          2,
		BatchSize:       128,
		Hidden:          8,
		Steps:           2,
		Seed:            7,
		SamplerOverhead: time.Millisecond,
	}
}

// benchCSR mirrors the fixture of internal/sparse/bench_test.go.
func benchCSR(n, nnzPerRow int, seed uint64) *sparse.CSR {
	r := rng.New(seed)
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, r.Intn(n), 1+r.Float64())
		}
	}
	return coo.ToCSR()
}

func benchMat(rows, cols int, seed uint64) *tensor.Dense {
	r := rng.New(seed)
	m := tensor.New(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = r.Float64()*2 - 1
	}
	return m
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

func suite(quick bool) []namedBench {
	o := benchOptions()
	benches := []namedBench{
		{"BenchmarkEngine_ReconstructSerial", func(b *testing.B) {
			r, events := engineFixture(b)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ev := range events {
					if _, err := r.Reconstruct(ctx, ev); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportEventsPerSec(b, len(events))
		}},
		{"BenchmarkEngine_ReconstructBatch_W1", func(b *testing.B) {
			r, events := engineFixture(b)
			eng, err := recon.NewEngine(r, recon.WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ReconstructBatch(ctx, events); err != nil {
					b.Fatal(err)
				}
			}
			reportEventsPerSec(b, len(events))
		}},
		{"BenchmarkEngine_ReconstructBatch_W4", func(b *testing.B) {
			r, events := engineFixture(b)
			eng, err := recon.NewEngine(r, recon.WithWorkers(4))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ReconstructBatch(ctx, events); err != nil {
					b.Fatal(err)
				}
			}
			reportEventsPerSec(b, len(events))
		}},
		{"BenchmarkEngine_OverloadSaturated", func(b *testing.B) {
			// Overload behavior (PR 6): 8 concurrent single-event submitters
			// against a 2-worker/2-slot admission window; each of the b.N
			// submissions either completes or fast-fails with ErrOverloaded.
			// The row reports the reject rate and the p99 latency of admitted
			// requests — the fast-fail contract means admitted work stays fast
			// while excess load bounces instead of stacking queue latency.
			r, events := engineFixture(b)
			eng, err := recon.NewEngine(r, recon.WithWorkers(2), recon.WithQueueDepth(2))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			const clients = 8
			var next, admitted, rejected atomic.Int64
			var mu sync.Mutex
			var latencies []time.Duration
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						ev := events[i%len(events)]
						start := time.Now()
						_, err := eng.ReconstructBatch(ctx, []*repro.Event{ev})
						if errors.Is(err, recon.ErrOverloaded) {
							rejected.Add(1)
							continue
						}
						if err != nil {
							b.Error(err)
							return
						}
						admitted.Add(1)
						d := time.Since(start)
						mu.Lock()
						latencies = append(latencies, d)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if total := admitted.Load() + rejected.Load(); total > 0 {
				b.ReportMetric(float64(rejected.Load())/float64(total), "reject_rate")
			}
			if len(latencies) > 0 {
				sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
				p99 := latencies[int(0.99*float64(len(latencies)-1))]
				b.ReportMetric(float64(p99.Nanoseconds()), "p99_admitted_ns")
			}
			reportEventsPerSec(b, 1)
		}},
		{"BenchmarkSpGEMM", func(b *testing.B) {
			a := benchCSR(2000, 8, 1)
			c := benchCSR(2000, 8, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.SpGEMM(a, c)
			}
		}},
		{"BenchmarkSpMM", func(b *testing.B) {
			a := benchCSR(2000, 8, 1)
			x := benchMat(2000, 32, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.SpMM(a, x)
			}
		}},
		{"BenchmarkGatherRowsCSR", func(b *testing.B) {
			a := benchCSR(2000, 8, 1)
			r := rng.New(4)
			idx := make([]int, 1024)
			for i := range idx {
				idx[i] = r.Intn(2000)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.GatherRows(a, idx)
			}
		}},
		{"BenchmarkMatMul", func(b *testing.B) {
			a := benchMat(4096, 64, 1)
			w := benchMat(64, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(a, w)
			}
		}},
		{"BenchmarkMatMulInto", func(b *testing.B) {
			a := benchMat(4096, 64, 1)
			w := benchMat(64, 64, 2)
			out := tensor.New(4096, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulIntoCtx(kernels.Context{}, out, a, w)
			}
		}},
		{"BenchmarkMatMulT", func(b *testing.B) {
			g := benchMat(4096, 64, 1)
			w := benchMat(64, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulT(g, w)
			}
		}},
		{"BenchmarkTMatMul", func(b *testing.B) {
			a := benchMat(4096, 64, 1)
			g := benchMat(4096, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.TMatMul(a, g)
			}
		}},
		{"BenchmarkGatherRows", func(b *testing.B) {
			x := benchMat(4096, 64, 1)
			r := rng.New(3)
			idx := make([]int, 8192)
			for i := range idx {
				idx[i] = r.Intn(4096)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.GatherRows(x, idx)
			}
		}},
		{"BenchmarkAddBias", func(b *testing.B) {
			x := benchMat(4096, 64, 1)
			bias := benchMat(1, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.AddBias(x, bias)
			}
		}},
		{"BenchmarkAddBiasReLUInto", func(b *testing.B) {
			x := benchMat(4096, 64, 1)
			bias := benchMat(1, 64, 2)
			out := tensor.New(4096, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.AddBiasReLUIntoCtx(kernels.Context{}, out, x, bias)
			}
		}},
		{"BenchmarkGatherConcat3Into", func(b *testing.B) {
			x := benchMat(4096, 64, 1)
			e := benchMat(8192, 16, 2)
			r := rng.New(3)
			src := make([]int, 8192)
			dst := make([]int, 8192)
			for i := range src {
				src[i] = r.Intn(4096)
				dst[i] = r.Intn(4096)
			}
			out := tensor.New(8192, 16+64+64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.GatherConcat3IntoCtx(kernels.Context{}, out, e, nil, x, src, x, dst)
			}
		}},
		{"BenchmarkSpMMAddInto", func(b *testing.B) {
			a := benchCSR(2000, 8, 1)
			x := benchMat(2000, 32, 3)
			res := benchMat(2000, 32, 4)
			out := tensor.New(2000, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparse.SpMMAddIntoCtx(kernels.Context{}, out, a, x, res)
			}
		}},
		{"BenchmarkBulkMatrixShaDow256x4", func(b *testing.B) {
			g, eidx := samplingFixture(2000)
			r := rng.New(2)
			var batches [][]int
			for j := 0; j < 4; j++ {
				batches = append(batches, r.SampleWithoutReplacement(2000, 256))
			}
			cfg := sampling.DefaultConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sampling.BulkMatrixShaDow(g, eidx, batches, cfg, r.Split())
			}
		}},
	}
	benches = append(benches, precisionSuite()...)
	if !quick {
		benches = append(benches,
			namedBench{"BenchmarkFigure3_EpochTime_P1", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, _ := repro.Figure3(context.Background(), o, []int{1})
					b.ReportMetric(repro.Figure3Speedups(rows)[1], "speedup")
				}
			}},
			namedBench{"BenchmarkFigure3_EpochTime_P4", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows, _ := repro.Figure3(context.Background(), o, []int{4})
					b.ReportMetric(repro.Figure3Speedups(rows)[4], "speedup")
				}
			}},
		)
	}
	return benches
}

// sweepNames selects the kernel and Reconstruct benchmarks the -procs
// sweep re-runs at each GOMAXPROCS setting.
var sweepNames = []string{
	"BenchmarkSpGEMM",
	"BenchmarkSpMM",
	"BenchmarkSpMMAddInto",
	"BenchmarkMatMulInto",
	"BenchmarkMatMulT",
	"BenchmarkTMatMul",
	"BenchmarkGatherRows",
	"BenchmarkAddBias",
	"BenchmarkAddBiasReLUInto",
	"BenchmarkGatherConcat3Into",
	"BenchmarkEngine_ReconstructSerial",
}

// parseProcsList parses a -procs value like "1,2,4".
func parseProcsList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad procs entry %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// runSweep re-runs the sweep suite under each GOMAXPROCS in procs and
// attaches speedup_vs_p1 metrics — unless the host has a single CPU, in
// which case speedup claims are explicitly deferred: GOMAXPROCS>1 on
// one core measures scheduling overhead, not parallel speedup, and
// printing a "speedup" from it would repeat the BENCH_2/BENCH_3 caveat
// this guard exists to kill.
func runSweep(procs []int) *ProcsSweep {
	sweep := &ProcsSweep{NumCPU: runtime.NumCPU(), Procs: procs}
	if sweep.NumCPU == 1 {
		sweep.SpeedupClaimsDeferred = true
		sweep.DeferredReason = "host has 1 CPU: GOMAXPROCS scaling cannot demonstrate parallel speedup; re-run the sweep on a multi-core host to claim speedup_vs_p1"
		fmt.Fprintln(os.Stderr, "bench: NOTE:", sweep.DeferredReason)
	}
	byName := map[string]func(b *testing.B){}
	for _, nb := range suite(true) {
		byName[nb.name] = nb.fn
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		run := SweepRun{Procs: p}
		for _, name := range sweepNames {
			fn, ok := byName[name]
			if !ok {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s at GOMAXPROCS=%d...\n", name, p)
			r := testing.Benchmark(fn)
			run.Benchmarks = append(run.Benchmarks, BenchResult{
				Name:        name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			})
		}
		sweep.Runs = append(sweep.Runs, run)
	}

	// Speedups are attached after every run completes, so the p=1
	// reference may appear anywhere in the -procs list.
	if sweep.SpeedupClaimsDeferred {
		return sweep
	}
	p1 := map[string]float64{}
	for _, run := range sweep.Runs {
		if run.Procs != 1 {
			continue
		}
		for _, b := range run.Benchmarks {
			p1[b.Name] = b.NsPerOp
		}
	}
	if len(p1) == 0 {
		fmt.Fprintln(os.Stderr, "bench: NOTE: -procs list has no p=1 run; speedup_vs_p1 cannot be computed")
		return sweep
	}
	for ri := range sweep.Runs {
		run := &sweep.Runs[ri]
		if run.Procs == 1 {
			continue
		}
		for bi := range run.Benchmarks {
			b := &run.Benchmarks[bi]
			if base, ok := p1[b.Name]; ok && b.NsPerOp > 0 {
				b.Metrics = map[string]float64{"speedup_vs_p1": base / b.NsPerOp}
			}
		}
	}
	return sweep
}

// engineFixture builds the 32-event batch and untrained reconstructor
// shared by the engine benchmarks — identical fixtures so the serial,
// 1-worker, and 4-worker entries measure the same work.
func engineFixture(b *testing.B) (*recon.Reconstructor, []*repro.Event) {
	spec := repro.Ex3Like(0.03)
	spec.NumEvents = 32
	ds := repro.GenerateDataset(spec, 3)
	r, err := recon.New(spec, recon.WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	return r, ds.Events
}

// reportEventsPerSec attaches reconstruction throughput to an engine
// benchmark whose inner loop processes n events per iteration.
func reportEventsPerSec(b *testing.B, n int) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "events/s")
	}
}

// samplingFixture mirrors internal/sampling/bench_test.go's benchGraph.
func samplingFixture(n int) (*graph.Graph, *sampling.EdgeIndex) {
	r := rng.New(1)
	var src, dst []int
	for i := 1; i < n; i++ {
		src = append(src, i-1)
		dst = append(dst, i)
	}
	for k := 0; k < 3*n; k++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			src = append(src, a)
			dst = append(dst, b)
		}
	}
	g := graph.New(n, src, dst)
	g.Adjacency()
	return g, sampling.NewEdgeIndex(g)
}

// attachEngineSpeedup records the 4-worker engine's throughput gain
// over the serial loop on the W4 entry. The measured speedup scales
// with available cores: worker-pool parallelism cannot beat serial on
// a single-CPU host, so `cores` is recorded alongside it.
func attachEngineSpeedup(rec *Record) {
	var serial, w4 *BenchResult
	for i := range rec.Benchmarks {
		switch rec.Benchmarks[i].Name {
		case "BenchmarkEngine_ReconstructSerial":
			serial = &rec.Benchmarks[i]
		case "BenchmarkEngine_ReconstructBatch_W4":
			w4 = &rec.Benchmarks[i]
		}
	}
	if serial == nil || w4 == nil || w4.NsPerOp == 0 {
		return
	}
	if w4.Metrics == nil {
		w4.Metrics = map[string]float64{}
	}
	w4.Metrics["speedup_vs_serial"] = serial.NsPerOp / w4.NsPerOp
	w4.Metrics["cores"] = float64(runtime.NumCPU())
}

func pct(baseline, current float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - current) / baseline
}

func main() {
	out := flag.String("out", "BENCH_1.json", "output JSON path")
	baselinePath := flag.String("baseline", "", "optional prior BENCH_*.json to diff against")
	quick := flag.Bool("quick", false, "skip the multi-second experiment benchmarks")
	procsFlag := flag.String("procs", "", "comma-separated GOMAXPROCS sweep for the kernel/Reconstruct benchmarks (e.g. 1,2,4); p>1 entries gain speedup_vs_p1 unless the host has 1 CPU")
	flag.Parse()

	procs, err := parseProcsList(*procsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -procs: %v\n", err)
		os.Exit(1)
	}

	// Validate the baseline before spending a minute on benchmarks.
	var base *Record
	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: read baseline: %v\n", err)
			os.Exit(1)
		}
		base = &Record{}
		if err := json.Unmarshal(raw, base); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parse baseline: %v\n", err)
			os.Exit(1)
		}
		base.Baseline = nil // never nest more than one level
	}

	rec := &Record{
		SchemaVersion: 1,
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		MaxProcs:      runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Protocol:      "testing.Benchmark per entry (default 1s benchtime), fixtures identical to bench_test.go and the kernel bench files; see PERF.md",
	}
	fmt.Fprintf(os.Stderr, "bench: host maxprocs=%d num_cpu=%d\n", rec.MaxProcs, rec.NumCPU)

	for _, nb := range suite(*quick) {
		fmt.Fprintf(os.Stderr, "running %s...\n", nb.name)
		r := testing.Benchmark(nb.fn)
		res := BenchResult{
			Name:        nb.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = map[string]float64{}
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		rec.Benchmarks = append(rec.Benchmarks, res)
	}

	attachEngineSpeedup(rec)

	if len(procs) > 0 {
		rec.Sweep = runSweep(procs)
	}

	ws := workspace.ReadStats()
	rec.Workspace.Gets = ws.Gets
	rec.Workspace.Puts = ws.Puts
	rec.Workspace.Misses = ws.Misses
	rec.Workspace.InUseBytes = ws.InUseBytes
	rec.WorkspaceFitsA100 = gpumem.A100().WorkspaceUsage().Fits

	if base != nil {
		rec.Baseline = base
		byName := map[string]BenchResult{}
		for _, b := range base.Benchmarks {
			byName[b.Name] = b
		}
		for _, c := range rec.Benchmarks {
			b, ok := byName[c.Name]
			if !ok {
				continue
			}
			rec.Improvements = append(rec.Improvements, Improvement{
				Name:          c.Name,
				NsPercent:     pct(b.NsPerOp, c.NsPerOp),
				BytesPercent:  pct(float64(b.BytesPerOp), float64(c.BytesPerOp)),
				AllocsPercent: pct(float64(b.AllocsPerOp), float64(c.AllocsPerOp)),
			})
		}
	}

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: marshal: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rec.Benchmarks))
}
