package knnsearch

import (
	"context"
	"testing"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// embeddedEvent returns the stage-1 embedding of one Ex3Like(0.1) event,
// the measured event size of the benchmark's graph_build workload, from
// an embedder trained as graph_build's fixture trains it: on eight
// half-size events at its default epochs.
func embeddedEvent(b *testing.B) *tensor.Dense {
	b.Helper()
	fit := detector.Ex3Like(0.05)
	fit.NumEvents = 8
	cfg := embed.DefaultConfig(fit)
	e := embed.New(cfg, rng.New(1))
	if _, err := e.TrainContext(context.Background(), kernels.Context{Workers: 1}, detector.Generate(fit, 2).Events, 3); err != nil {
		b.Fatal(err)
	}
	ev := detector.GenerateEvent(detector.Ex3Like(0.1), rng.New(4))
	return embed.NewInference[float64](e).EmbedCtx(kernels.Context{Workers: 1}, nil, ev.Features)
}

// BenchmarkBuildRadiusGraph times stage 2 at graph_build's shape: one
// embedded Ex3Like(0.1) event, radius 0.35, degree cap 12, one worker.
func BenchmarkBuildRadiusGraph(b *testing.B) {
	emb := embeddedEvent(b)
	kc := kernels.Context{Workers: 1}
	var src []int
	b.ReportAllocs()
	for b.Loop() {
		src, _ = BuildRadiusGraphCtx(kc, emb, 0.35, 12)
	}
	b.ReportMetric(float64(len(src)), "edges")
}
