package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workspace"
)

// window is one measured closed loop.
type window struct {
	lat      []float64 // ms per op (per step-equivalent on train_dist), completed ops only
	units    float64   // work done: events, or sampled roots
	wall     time.Duration
	ops      int
	failed   int
	firstErr error
}

// add appends a later slice of the same window.
func (w *window) add(o window) {
	w.lat = append(w.lat, o.lat...)
	w.units += o.units
	w.wall += o.wall
	w.ops += o.ops
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// runWindow drives inst for d: callers goroutines, each with exactly one
// op in flight, taking op numbers from one shared counter (starting at
// from) so the input order is the same on every run. An op that has
// started when the time is up still completes and counts. With tr
// non-nil every op runs under a root span.
func runWindow(ctx context.Context, inst *instance, d time.Duration, from int, tr *tracer) window {
	var (
		next atomic.Int64
		mu   sync.Mutex
		win  window
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < inst.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own window
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				octx := ctx
				var o *opTrace
				if tr != nil {
					o = tr.startOp()
					octx = withOp(ctx, o)
				}
				t0 := time.Now()
				u, err := inst.do(octx, i)
				el := time.Since(t0)
				if o != nil {
					tr.finishOp(o, i, int(u))
				}
				own.ops++
				if err != nil {
					own.failed++
					if own.firstErr == nil {
						own.firstErr = err
					}
					continue
				}
				own.units += u
				own.lat = append(own.lat, float64(el)/float64(time.Millisecond)*inst.stepUnits/u)
			}
			mu.Lock()
			win.add(own)
			mu.Unlock()
		}()
	}
	wg.Wait()
	win.wall = time.Since(start)
	return win
}

// counters are the process-wide counts taken on either side of an
// untraced slice; add accumulates the difference.
type counters struct {
	mallocs, allocBytes uint64
	gets, misses, inUse int64
}

func readCounters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ws := workspace.ReadStats()
	return counters{m.Mallocs, m.TotalAlloc, ws.Gets, ws.Misses, ws.InUseBytes}
}

func (c *counters) add(after, before counters) {
	c.mallocs += after.mallocs - before.mallocs
	c.allocBytes += after.allocBytes - before.allocBytes
	c.gets += after.gets - before.gets
	c.misses += after.misses - before.misses
	c.inUse = after.inUse
}

func counterLedger(rep *report, used counters, ops int) {
	n := float64(max(ops, 1))
	rep.layer["engine.allocs_per_op"] = value{float64(used.mallocs) / n, ops}
	rep.layer["engine.alloc_kb_per_op"] = value{float64(used.allocBytes) / 1024 / n, ops}
	if used.gets > 0 {
		rep.layer["workspace.miss_ratio"] = value{float64(used.misses) / float64(used.gets), int(used.gets)}
	}
	rep.layer["workspace.in_use_kb_after"] = value{float64(used.inUse) / 1024, 1}
}

// opLedger is what one traced op's spans say about its layers.
type opLedger struct {
	wallMs  float64
	busyMs  map[string]float64 // self time by span name
	counts  map[string][2]int  // In, Out of the (last) span of that name
	closure float64            // |Σ self − root| / root
}

func readOp(spans []span) opLedger {
	l := opLedger{busyMs: map[string]float64{}, counts: map[string][2]int{}}
	self := selfTimes(spans)
	var sum int64
	for i, s := range spans {
		l.busyMs[s.Name] += float64(self[i]) / 1e6
		l.counts[s.Name] = [2]int{s.In, s.Out}
		sum += self[i]
	}
	root := spans[0].dur()
	l.wallMs = float64(root) / 1e6
	if root > 0 {
		l.closure = math.Abs(float64(sum-root)) / float64(root)
	}
	return l
}

// ledger turns the traced window's spans into the stage rows of the
// per-layer table (each the median over ops) and applies the
// workload-shape guards: a workload that stops stressing the layer it
// was chosen for fails loudly instead of reporting a flattering number.
func ledger(rep *report, inst *instance, tr *tracer, plain, traced window) {
	n := len(tr.ops)
	ops := make([]opLedger, n)
	for i, spans := range tr.ops {
		ops[i] = readOp(spans)
	}
	col := func(f func(opLedger) float64) value {
		vs := make([]float64, n)
		for i, l := range ops {
			vs[i] = f(l)
		}
		return value{median(vs), n}
	}
	busy := func(name string) value { return col(func(l opLedger) float64 { return l.busyMs[name] }) }
	count := func(name string, out int) value {
		return col(func(l opLedger) float64 { return float64(l.counts[name][out]) })
	}
	put := func(name string, v value) { rep.layer[name] = v }

	put("op.latency_p99_ms", value{percentile(sortedCopy(plain.lat), 0.99), len(plain.lat)})
	if plain.units > 0 && traced.units > 0 {
		plainRate := plain.units / plain.wall.Seconds()
		tracedRate := traced.units / traced.wall.Seconds()
		put("trace.overhead_pct", value{100 * (plainRate/tracedRate - 1), traced.ops})
	}
	closure := col(func(l opLedger) float64 { return 100 * l.closure })
	put("trace.closure_pct", closure)
	if inst.kind == "train" || n == 0 {
		return // no stage seam under the trainer: its ledger comes from inst.layers
	}

	put("detector.hits", count(spanBuild, 0))
	put("embed.busy_ms", busy(spanEmbed))
	put("knnsearch.busy_ms", busy(spanBuild))
	put("knnsearch.candidate_edges", count(spanBuild, 1))
	put("filter.busy_ms", busy(spanFilter))
	put("filter.keep_ratio", col(func(l opLedger) float64 { c := l.counts[spanFilter]; return ratio(c[1], c[0]) }))
	put("ignn.busy_ms", busy(spanGNN))
	put("ignn.edges", count(spanGNN, 0))
	put("ignn.ns_per_edge_step", col(func(l opLedger) float64 {
		work := l.counts[spanGNN][0] * inst.gnnSteps
		if work == 0 {
			return 0
		}
		return l.busyMs[spanGNN] * 1e6 / float64(work)
	}))
	put("graph.extract_ms", busy(spanExtract))
	put("graph.tracks", count(spanExtract, 1))
	// What the event costs outside its stages: AssembleGraph,
	// thresholding, MatchTracks and the arena — on serve_small the
	// handler's share of it, with the codec and admission.
	owner := "op"
	if inst.kind == "serve" {
		owner = spanServer
	}
	put("recon.self_ms", busy(owner))

	gnnShare := col(func(l opLedger) float64 { return l.busyMs[spanGNN] / l.wallMs }).v
	buildShare := col(func(l opLedger) float64 {
		return (l.busyMs[spanEmbed] + l.busyMs[spanBuild] + l.busyMs[spanFilter]) / l.wallMs
	}).v
	switch inst.kind {
	case "gnn":
		rep.check(gnnShare >= 0.8, "shape guard: ignn.busy_ms is %.0f%% of the op, want >= 80%%", 100*gnnShare)
	case "build":
		rep.check(rep.layer["ignn.busy_ms"].v == 0, "shape guard: ignn.busy_ms = %v on graph_build, want 0", rep.layer["ignn.busy_ms"].v)
		rep.check(buildShare >= 0.7, "shape guard: embed+knnsearch+filter is %.0f%% of the op, want >= 70%%", 100*buildShare)
	}
	rep.check(closure.v <= 3, "closure: span self times differ from the op wall by %.2f%%, want <= 3%%", closure.v)
}
