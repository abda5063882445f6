package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	// The highest level with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(v, 0.5); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(v, 0.9); got < 9.09 || got > 9.11 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeNestedChild(t *testing.T) {
	// op [0,100] ⊃ knnsearch [10,60] ⊃ embed [20,40]; filter [60,90].
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: spanBuild, ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: spanEmbed, ID: 2, Parent: 1, Start: 20, End: 40},
		{Name: spanFilter, ID: 3, Parent: 0, Start: 60, End: 90},
	}
	want := []int64{20, 30, 20, 30}
	got := selfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times add up to %d, want the op's %d", sum, spans[0].dur())
	}
	if l := readOp(spans); l.closure != 0 || l.busyMs[spanBuild] != 30e-6 {
		t.Errorf("readOp: closure %v, knnsearch busy %v ms", l.closure, l.busyMs[spanBuild])
	}
	// A child that overruns its parent is clipped, and the closure shows it.
	spans[3].End = 130
	if l := readOp(spans); l.closure == 0 {
		t.Error("an overrunning child left the closure at 0")
	}
}

func TestTracerNestsThroughContext(t *testing.T) {
	tr := newTracer()
	o := tr.startOp()
	ctx := withOp(context.Background(), o)
	b := opFrom(ctx).begin(spanBuild)
	e := opFrom(ctx).begin(spanEmbed)
	o.end(e, 7, 7)
	o.end(b, 7, 21)
	tr.finishOp(o, 0, 1)
	got := tr.ops[0]
	if len(got) != 3 || got[1].Parent != 0 || got[2].Parent != 1 || got[1].Out != 21 {
		t.Errorf("spans = %+v", got)
	}
	if tr.lookup(o.id) != nil {
		t.Error("a finished op is still live")
	}
}

func TestSeedMakesRequests(t *testing.T) {
	bodies := func(seed uint64) [2][][]byte {
		_, events := seedEvents(size.serveScale, 3, seed)
		b, err := requestBodies(events)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := bodies(11), bodies(11), bodies(12)
	for format := range a {
		for i := range a[format] {
			if !bytes.Equal(a[format][i], b[format][i]) {
				t.Errorf("format %d event %d: the same seed gave different request bytes", format, i)
			}
			if bytes.Equal(a[format][i], c[format][i]) {
				t.Errorf("format %d event %d: different seeds gave the same request bytes", format, i)
			}
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, file []jsonMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(file), len(defs))
		}
		for i, m := range file {
			d := defs[i]
			unique(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, m, d)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness, want equal and in (0, 0.25]", m.Name, m.Bound, d.bound)
			}
			if !bounded && d.moves == "" {
				t.Errorf("%s: the interaction (moves) is not written down", m.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower: %+v", b.EndToEnd[0])
	}
	for _, m := range b.EndToEnd {
		if *m.Bound > *b.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above that of setup_s", m.Name, *m.Bound)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestSmoke runs every workload, both passes, at tiny sizes and checks
// that each prints every metric by name, on the table and on the JSON
// line. It is sized to take well under 20 s; with models this small the
// physics floors do not hold, so failed checks are not this test's
// business.
func TestSmoke(t *testing.T) {
	full := size
	defer func() { size = full }()
	size = sizing{
		eventScale: 0.02, serveScale: 0.02, trainScale: 0.01, fitScale: 0.01,
		gnnEvents: 4, buildEvents: 4, serveEvents: 4,
		trainGraphs: 2, valEvents: 2,
		gnnFitEvents: 1, gnnFitEpochs: 1,
		buildFitEvents: 1,
		serveFitEvents: 1, serveFitEpochs: 1,
		trainEpochs:  1,
		warmEvents:   1,
		verifyEvents: 2,
		setupRepeats: 1,
		kernelCalls:  2,
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the span dumps land here
		t.Fatal(err)
	}
	defer os.Chdir(old)

	start := time.Now()
	for _, def := range workloads {
		rep, err := runWorkload(context.Background(), def, 3, 150*time.Millisecond, traceBoth)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		var table bytes.Buffer
		rep.print(&table, traceBoth)
		var line struct {
			Correct   *bool
			Attempted int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(rep.jsonLine(traceBoth)), &line); err != nil {
			t.Fatalf("%s: the JSON line does not parse: %v", def.name, err)
		}
		if line.Correct == nil || line.Failed == nil || line.Attempted < 1 {
			t.Errorf("%s: the JSON line lacks correct, attempted or failed", def.name)
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if !strings.Contains(table.String(), "\n"+d.name+" ") {
				t.Errorf("%s: %s is not on the table", def.name, d.name)
			}
			if m, ok := line.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("%s: %s is not on the JSON line with unit %s", def.name, d.name, d.unit)
			}
		}
		for _, d := range endToEnd {
			if d.name != "track_efficiency" && rep.e2e[d.name].v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", def.name, d.name, rep.e2e[d.name].v)
			}
		}
		if _, err := os.Stat(outDir + "/" + def.name + ".spans.jsonl"); err != nil {
			t.Errorf("%s: no span dump: %v", def.name, err)
		}
		// Only the numbers of a trace pass go out with -trace 1.
		if got := rep.jsonLine(traceOn); strings.Contains(got, `"setup_s"`) || !strings.Contains(got, `"trace.overhead_pct"`) {
			t.Errorf("%s: the -trace 1 line mixes the passes: %s", def.name, got)
		}
		if got := rep.jsonLine(traceOff); !strings.Contains(got, `"setup_s"`) || strings.Contains(got, `"trace.overhead_pct"`) {
			t.Errorf("%s: the -trace 0 line mixes the passes: %s", def.name, got)
		}
	}
	t.Logf("smoke pass over %d workloads took %v", len(workloads), time.Since(start))
}
