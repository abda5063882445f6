package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/recon"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (-1 for the op's
// root). In and Out are the counts taken at the same boundary (hits in,
// edges out, ...), so ratios are measured where the work happens.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	In     int    `json:"in,omitempty"`
	Out    int    `json:"out,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// opTrace collects the spans of one op. The stages of one event run one
// after another, so a single "current span" cursor is enough to nest
// them (the embed thunk runs inside the graph builder). The mutex orders
// the client, handler and engine-worker goroutines that touch one op on
// serve_small.
type opTrace struct {
	mu    sync.Mutex
	id    int
	epoch time.Time
	spans []span
	cur   int
}

func (o *opTrace) begin(name string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	id := len(o.spans)
	o.spans = append(o.spans, span{Name: name, Op: o.id, ID: id, Parent: o.cur, Start: int64(time.Since(o.epoch))})
	o.cur = id
	return id
}

func (o *opTrace) end(id, in, out int) {
	now := int64(time.Since(o.epoch))
	o.mu.Lock()
	defer o.mu.Unlock()
	s := &o.spans[id]
	s.End, s.In, s.Out = now, in, out
	o.cur = s.Parent
}

// tracer keeps every finished op's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	ops   [][]span
	live  sync.Map // op id → *opTrace, for the HTTP handler to find its op
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) startOp() *opTrace {
	t.mu.Lock()
	id := t.next
	t.next++
	t.mu.Unlock()
	o := &opTrace{id: id, epoch: t.epoch, cur: -1}
	t.live.Store(id, o)
	o.begin("op")
	return o
}

func (t *tracer) finishOp(o *opTrace, in, out int) {
	o.end(0, in, out)
	t.live.Delete(o.id)
	t.mu.Lock()
	t.ops = append(t.ops, o.spans)
	t.mu.Unlock()
}

func (t *tracer) lookup(id int) *opTrace {
	if v, ok := t.live.Load(id); ok {
		return v.(*opTrace)
	}
	return nil
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, op := range t.ops {
		for _, s := range op {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type opKey struct{}

func withOp(ctx context.Context, o *opTrace) context.Context {
	return context.WithValue(ctx, opKey{}, o)
}

func opFrom(ctx context.Context) *opTrace {
	o, _ := ctx.Value(opKey{}).(*opTrace)
	return o
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its direct children cover. Children are clipped to the
// parent and overlapping children are counted once, so the self times of
// a well-nested op add up to the root's duration exactly.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// The five module names a stage span can carry; <module>.busy_ms is the
// self time of those spans.
const (
	spanEmbed   = "embed"
	spanBuild   = "knnsearch"
	spanFilter  = "filter"
	spanGNN     = "ignn"
	spanExtract = "graph"
	spanServer  = "server"
)

// stageTracer is the timing recon.StageWrapper: the seam options.go
// documents for tracing. A call whose context carries no op (fitting,
// warm-up, verification) passes straight through.
type stageTracer struct{}

func (stageTracer) WrapEmbedder(e recon.Embedder) recon.Embedder { return tracedEmbedder{e} }
func (stageTracer) WrapGraphBuilder(b recon.GraphBuilder) recon.GraphBuilder {
	return tracedBuilder{b}
}
func (stageTracer) WrapEdgeFilter(f recon.EdgeFilter) recon.EdgeFilter { return tracedFilter{f} }
func (stageTracer) WrapEdgeClassifier(c recon.EdgeClassifier) recon.EdgeClassifier {
	return tracedClassifier{c}
}
func (stageTracer) WrapTrackExtractor(x recon.TrackExtractor) recon.TrackExtractor {
	return tracedExtractor{x}
}

type tracedEmbedder struct{ next recon.Embedder }

func (t tracedEmbedder) Embed(ctx context.Context, a *recon.Arena, ev *recon.Event) (*recon.Matrix, error) {
	o := opFrom(ctx)
	if o == nil {
		return t.next.Embed(ctx, a, ev)
	}
	id := o.begin(spanEmbed)
	m, err := t.next.Embed(ctx, a, ev)
	o.end(id, ev.NumHits(), ev.NumHits())
	return m, err
}

type tracedBuilder struct{ next recon.GraphBuilder }

func (t tracedBuilder) BuildEdges(ctx context.Context, a *recon.Arena, ev *recon.Event, embed func() (*recon.Matrix, error)) ([]int, []int, error) {
	o := opFrom(ctx)
	if o == nil {
		return t.next.BuildEdges(ctx, a, ev, embed)
	}
	id := o.begin(spanBuild)
	src, dst, err := t.next.BuildEdges(ctx, a, ev, embed)
	o.end(id, ev.NumHits(), len(src))
	return src, dst, err
}

type tracedFilter struct{ next recon.EdgeFilter }

func (t tracedFilter) FilterEdges(ctx context.Context, a *recon.Arena, ev *recon.Event, src, dst []int) ([]int, []int, error) {
	o := opFrom(ctx)
	if o == nil {
		return t.next.FilterEdges(ctx, a, ev, src, dst)
	}
	id := o.begin(spanFilter)
	fsrc, fdst, err := t.next.FilterEdges(ctx, a, ev, src, dst)
	o.end(id, len(src), len(fsrc))
	return fsrc, fdst, err
}

type tracedClassifier struct{ next recon.EdgeClassifier }

func (t tracedClassifier) ScoreEdges(ctx context.Context, a *recon.Arena, eg *recon.EventGraph) ([]float64, error) {
	o := opFrom(ctx)
	if o == nil {
		return t.next.ScoreEdges(ctx, a, eg)
	}
	id := o.begin(spanGNN)
	scores, err := t.next.ScoreEdges(ctx, a, eg)
	o.end(id, eg.NumEdges(), len(scores))
	return scores, err
}

type tracedExtractor struct{ next recon.TrackExtractor }

func (t tracedExtractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	o := opFrom(ctx)
	if o == nil {
		return t.next.ExtractTracks(ctx, eg, keep)
	}
	id := o.begin(spanExtract)
	tracks, err := t.next.ExtractTracks(ctx, eg, keep)
	o.end(id, eg.NumEdges(), len(tracks))
	return tracks, err
}
