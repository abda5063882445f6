// Command benchmark is the repository's reference benchmark: six
// workloads, eight end-to-end metrics and a per-layer ledger, all
// measured from outside the packages they describe. BENCHMARK.json at the
// repository root names the workloads, metrics and bounds; README.md in
// this directory explains them.
//
//	go run ./benchmark                         every workload, both passes
//	go run ./benchmark -workload serve_small -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -repeat 10              medians, quartiles, spread
//
// Each workload ends with one JSON object on a line of its own,
// {"correct", "attempted", "failed", "metrics"}, so the last line of
// standard output is the (last) workload's result; the exit code is
// non-zero when an op or a verification failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Which passes a run makes. The end-to-end numbers always come from a
// window with tracing off; the per-layer numbers from a second, traced
// window over the same ops.
const (
	traceOff  = 0 // end-to-end metrics only
	traceOn   = 1 // per-layer metrics only (half the time untraced, half traced)
	traceBoth = 2 // a full window of each
)

// outDir holds what a run leaves behind inside the checkout: the fixture
// checkpoints while it runs, and the span dump of a traced pass.
const outDir = ".bench_out"

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed         = flag.Uint64("seed", 1, "dataset seed: the measured inputs are generated from it")
		seconds      = flag.Float64("seconds", 10, "length of one measured window")
		traceFlag    = flag.Int("trace", traceBoth, "0: end-to-end metrics, 1: per-layer metrics, 2: both")
		repeat       = flag.Int("repeat", 1, "run each workload N times on seeds seed..seed+N-1 and print medians, quartiles and spread")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || *traceFlag < traceOff || *traceFlag > traceBoth {
		fmt.Fprintln(os.Stderr, "usage: go run ./benchmark [-workload name[,name]|all] [-seed n] [-seconds s] [-trace 0|1|2] [-repeat n]")
		os.Exit(2)
	}
	var defs []workloadDef
	if *workloadFlag == "all" {
		defs = workloads
	} else {
		for _, name := range strings.Split(*workloadFlag, ",") {
			def, ok := findWorkload(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
				os.Exit(2)
			}
			defs = append(defs, def)
		}
	}
	fmt.Printf("# go %s GOMAXPROCS=%d num_cpu=%d %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)

	ctx := context.Background()
	window := time.Duration(*seconds * float64(time.Second))
	ok := true
	for _, def := range defs {
		var runs []*report
		for k := 0; k < *repeat; k++ {
			rep, err := runWorkload(ctx, def, *seed+uint64(k), window, *traceFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
				os.Exit(1)
			}
			rep.print(os.Stdout, *traceFlag)
			runs = append(runs, rep)
		}
		result := runs[0]
		if *repeat > 1 {
			result = summarize(os.Stdout, runs)
		}
		// One result object per workload; the driver asks for one
		// workload, so its object is the last line.
		fmt.Println(result.jsonLine(*traceFlag))
		ok = ok && result.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// value is one reported number and the count of samples behind it.
type value struct {
	v float64
	n int
}

// report is the outcome of one workload on one seed.
type report struct {
	workload  string
	seed      uint64
	attempted int
	failed    int
	notes     []string // what failed, one line each
	e2e       map[string]value
	layer     map[string]value
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *report) print(w io.Writer, trace int) {
	fmt.Fprintf(w, "\n== %s seed=%d attempted=%d failed=%d\n", r.workload, r.seed, r.attempted, r.failed)
	if n := r.e2e["latency_p50_ms"].n; n > 0 {
		fmt.Fprintf(w, "# %d latency samples: the highest percentile with ten samples beyond it is p%g\n", n, 100*highestPercentile(n))
	}
	row := func(d metricDef, v value) {
		fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d\n", d.name, v.v, d.unit, v.n)
	}
	if trace != traceOn {
		for _, d := range endToEnd {
			row(d, r.e2e[d.name])
		}
	}
	if trace != traceOff {
		for _, d := range perLayer {
			row(d, r.layer[d.name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
}

// jsonLine renders the result object the driver reads: every end-to-end
// metric without tracing, every per-layer metric with it.
func (r *report) jsonLine(trace int) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	if trace != traceOn {
		for _, d := range endToEnd {
			out.Metrics[d.name] = metric{r.e2e[d.name].v, d.unit}
		}
	}
	if trace != traceOff {
		for _, d := range perLayer {
			out.Metrics[d.name] = metric{r.layer[d.name].v, d.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings go in
	}
	return string(b)
}

// summarize prints, for repeated runs of one workload, each end-to-end
// metric's median and quartiles, and marks a metric whose inter-quartile
// spread exceeds its own bound as unresolved: two such sets cannot be
// told apart at that bound. It returns a report holding the medians.
func summarize(w io.Writer, runs []*report) *report {
	sum := &report{workload: runs[0].workload, seed: runs[0].seed, e2e: map[string]value{}, layer: map[string]value{}}
	for _, r := range runs {
		sum.attempted += r.attempted
		sum.failed += r.failed
	}
	fmt.Fprintf(w, "\n== %s: %d runs, seeds %d..%d\n", sum.workload, len(runs), runs[0].seed, runs[len(runs)-1].seed)
	fmt.Fprintf(w, "%-20s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	vs := make([]float64, len(runs))
	for _, d := range endToEnd {
		for i, r := range runs {
			vs[i] = r.e2e[d.name].v
		}
		q1, q2, q3 := quartiles(vs)
		sum.e2e[d.name] = value{q2, len(vs)}
		s, mark := spread(vs), ""
		// The spread of setup_s is exempt: it is a handful of short
		// set-ups per run, compared only median against median.
		if s > d.bound && d.name != "setup_s" {
			mark = "  unresolved"
		}
		fmt.Fprintf(w, "%-20s %12.6g %12.6g %12.6g %7.2f%% %5.1f%%%s\n", d.name, q1, q2, q3, 100*s, 100*d.bound, mark)
	}
	for _, d := range perLayer {
		for i, r := range runs {
			vs[i] = r.layer[d.name].v
		}
		sum.layer[d.name] = value{median(vs), len(vs)}
	}
	return sum
}

// quality is the physics outcome of a set of ops, kept as counts so that
// it aggregates the Table-1 way (Σmatched / Σreconstructable).
type quality struct {
	matched, reconstructable int
	tp, fp, fn               int
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (q quality) efficiency() float64 { return ratio(q.matched, q.reconstructable) }
func (q quality) precision() float64  { return ratio(q.tp, q.tp+q.fp) }
func (q quality) recall() float64     { return ratio(q.tp, q.tp+q.fn) }

// workload builds one of the six systems under test.
type workload interface {
	// fixture runs once per process: it trains the models on fixed
	// training events and leaves a checkpoint under dir. It is not part
	// of setup_s; its time is the layer metric fixture.fit_s.
	fixture(ctx context.Context, dir string) error
	// setup is what a deployment pays before its first op: generate the
	// seed's inputs, construct, load the checkpoint, start the engine or
	// server, run a warm-up pass. With tr non-nil the stage tracer is
	// installed.
	setup(ctx context.Context, seed uint64, tr *tracer) (*instance, error)
}

// instance is a set-up system ready to take ops.
type instance struct {
	kind      string  // "gnn", "build", "serve" or "train": selects the shape guards
	callers   int     // closed-loop callers, each with one op in flight
	stepUnits float64 // work units in one op: 1 event, or one batch of roots
	gnnSteps  int     // message-passing steps, for ignn.ns_per_edge_step

	// do runs op i (inputs cycle) and returns the work units it did.
	do func(ctx context.Context, i int) (units float64, err error)
	// verify checks the outputs the measured ops produced and returns
	// their physics quality.
	verify func(ctx context.Context, rep *report) (quality, error)
	// layers adds the workload's own per-layer metrics in a traced run,
	// from what the untraced window left behind and from direct calls.
	layers func(ctx context.Context, rep *report, plain window) error
	close  func()
}

// traceSlices is how many alternating slices a traced run cuts its two
// windows into.
const traceSlices = 5

func runWorkload(ctx context.Context, def workloadDef, seed uint64, d time.Duration, trace int) (*report, error) {
	rep := &report{workload: def.name, seed: seed, e2e: map[string]value{}, layer: map[string]value{}}
	w := def.make()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	if err := w.fixture(ctx, dir); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fit := time.Since(start)

	var setups []float64
	var inst *instance
	for k := 0; k < size.setupRepeats; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // every set-up starts from the same heap
		start = time.Now()
		if inst, err = w.setup(ctx, seed, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	plainDur, tracedDur := d, d
	switch trace {
	case traceOff:
		tracedDur = 0
	case traceOn:
		plainDur, tracedDur = d/2, d/2
	}
	// With tracing on, the untraced and the traced window are cut into
	// slices that alternate: the host's speed drifts over minutes on a
	// shared machine, and this way the drift hits both alike, so that
	// trace.overhead_pct compares like with like.
	var tr *tracer
	var tinst *instance
	slices := 1
	if tracedDur > 0 {
		tr = newTracer()
		if tinst, err = w.setup(ctx, seed, tr); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		defer tinst.close()
		slices = traceSlices
	}
	var plain, traced window
	var used counters // over the untraced slices only
	for s := 0; s < slices; s++ {
		before := readCounters()
		plain.add(runWindow(ctx, inst, plainDur/time.Duration(slices), plain.ops, nil))
		used.add(readCounters(), before)
		if tinst != nil {
			traced.add(runWindow(ctx, tinst, tracedDur/time.Duration(slices), traced.ops, tr))
		}
	}
	rep.attempted += plain.ops + traced.ops
	rep.failed += plain.failed + traced.failed
	for _, err := range []error{plain.firstErr, traced.firstErr} {
		if err != nil {
			rep.notes = append(rep.notes, "op failed: "+err.Error())
		}
	}
	if len(plain.lat) == 0 {
		return nil, fmt.Errorf("no op completed in %v: %v", plainDur, plain.firstErr)
	}

	if tinst != nil {
		ledger(rep, tinst, tr, plain, traced)
		counterLedger(rep, used, plain.ops)
		rep.layer["fixture.fit_s"] = value{fit.Seconds(), 1}
		if err := inst.layers(ctx, rep, plain); err != nil {
			return nil, fmt.Errorf("layer metrics: %w", err)
		}
		if err := tr.dump(fmt.Sprintf("%s/%s.spans.jsonl", outDir, def.name)); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
	}

	q, err := inst.verify(ctx, rep)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	lat := sortedCopy(plain.lat)
	rep.e2e["setup_s"] = value{median(setups), len(setups)}
	rep.e2e["throughput_per_s"] = value{plain.units / plain.wall.Seconds(), plain.ops}
	rep.e2e["latency_p50_ms"] = value{percentile(lat, 0.50), len(lat)}
	rep.e2e["latency_p90_ms"] = value{percentile(lat, 0.90), len(lat)}
	rep.e2e["track_efficiency"] = value{q.efficiency(), q.reconstructable}
	rep.e2e["edge_precision"] = value{q.precision(), q.tp + q.fp}
	rep.e2e["edge_recall"] = value{q.recall(), q.tp + q.fn}
	rep.e2e["success_share"] = value{1 - ratio(rep.failed, rep.attempted), rep.attempted}
	return rep, nil
}
