// Package faultinject is a deterministic chaos harness for the recon
// serving data plane: it wraps any of the five stage interfaces with
// injected errors, panics, and latency spikes, driving the chaos test
// suite and cmd/serve's -chaos-* flags.
//
// Every injection decision is a pure function of (seed, stage, event
// structure) — seeded through internal/rng, never a global source — so
// the same event faults identically at any worker count, submission
// order, or repetition. That determinism is what lets the chaos suite
// assert the strongest invariant: events the injector leaves alone must
// produce bit-identical results to a fault-free run.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/recon"
)

// ErrInjected is the root of every injected error; test assertions and
// servers distinguish deliberate chaos from organic failures with
// errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// Config sets the per-stage-call fault rates. For each guarded stage
// call exactly one fault (or none) fires, chosen by a deterministic
// draw: panic with probability PanicRate, error with ErrorRate, latency
// spike with DelayRate (the three must sum to ≤ 1).
type Config struct {
	Seed      uint64        // decision stream seed
	ErrorRate float64       // probability of returning ErrInjected
	PanicRate float64       // probability of panicking
	DelayRate float64       // probability of sleeping Delay before the call
	Delay     time.Duration // latency spike size
}

// Injector wraps recon stages with deterministic fault injection. It
// implements recon.StageWrapper, so the whole pipeline is wrapped with
// recon.WithStageWrapper(inj); individual Wrap* methods compose
// per-stage harnesses. The zero rates make every wrapper a passthrough.
type Injector struct {
	cfg    Config
	errors atomic.Int64
	panics atomic.Int64
	delays atomic.Int64
}

// New validates cfg and builds an injector.
func New(cfg Config) (*Injector, error) {
	for _, r := range []float64{cfg.ErrorRate, cfg.PanicRate, cfg.DelayRate} {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("faultinject: rates must be in [0,1], got %v", r)
		}
	}
	if sum := cfg.ErrorRate + cfg.PanicRate + cfg.DelayRate; sum > 1 {
		return nil, fmt.Errorf("faultinject: rates sum to %v > 1", sum)
	}
	if cfg.DelayRate > 0 && cfg.Delay <= 0 {
		return nil, fmt.Errorf("faultinject: DelayRate %v needs a positive Delay", cfg.DelayRate)
	}
	return &Injector{cfg: cfg}, nil
}

// Active reports whether any fault can ever fire.
func (inj *Injector) Active() bool {
	return inj != nil && inj.cfg.ErrorRate+inj.cfg.PanicRate+inj.cfg.DelayRate > 0
}

// Key hashes the stable structure of an event (hit count, truth-edge
// count, first/last truth endpoints) into the injector's decision
// stream, mirroring the seeding discipline of recon's truth-level
// builder: the same event is the same chaos victim in any order.
func Key(ev *recon.Event) uint64 {
	if ev == nil {
		return 0
	}
	h := uint64(ev.NumHits()) * 0x9E3779B97F4A7C15
	h = (h ^ uint64(len(ev.TruthSrc))) * 0xBF58476D1CE4E5B9
	if n := len(ev.TruthSrc); n > 0 {
		h ^= uint64(ev.TruthSrc[0])<<32 | uint64(ev.TruthDst[n-1])
	}
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	return h ^ (h >> 29)
}

// stageSalt folds a stage name into the decision stream so each stage
// draws independently for the same event.
func stageSalt(stage string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(stage); i++ {
		h = (h ^ uint64(stage[i])) * 1099511628211
	}
	return h
}

// fault is one decided injection.
type fault int

const (
	faultNone fault = iota
	faultError
	faultPanic
	faultDelay
)

// decide draws the deterministic fault for one (stage, event) call.
func (inj *Injector) decide(stage string, key uint64) fault {
	if !inj.Active() {
		return faultNone
	}
	u := rng.New(inj.cfg.Seed ^ stageSalt(stage) ^ key).Float64()
	switch {
	case u < inj.cfg.PanicRate:
		return faultPanic
	case u < inj.cfg.PanicRate+inj.cfg.ErrorRate:
		return faultError
	case u < inj.cfg.PanicRate+inj.cfg.ErrorRate+inj.cfg.DelayRate:
		return faultDelay
	}
	return faultNone
}

// before fires the decided fault ahead of the wrapped stage call. A
// panic propagates to the engine's stage guard; an error returns
// without invoking the stage; a delay sleeps (cancellable) then falls
// through to the real call, leaving the result untouched.
func (inj *Injector) before(ctx context.Context, stage string, key uint64) error {
	switch inj.decide(stage, key) {
	case faultPanic:
		inj.panics.Add(1)
		panic(fmt.Sprintf("faultinject: injected panic in %s (event key %#x)", stage, key))
	case faultError:
		inj.errors.Add(1)
		return fmt.Errorf("%w: stage %s (event key %#x)", ErrInjected, stage, key)
	case faultDelay:
		inj.delays.Add(1)
		t := time.NewTimer(inj.cfg.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// The five stage wrappers. Each defers entirely to the inner stage when
// no fault fires, so non-victim events are bit-identical to an
// unwrapped run (a latency spike alone never changes results).

type embedder struct {
	inner recon.Embedder
	inj   *Injector
}

func (e embedder) Embed(ctx context.Context, a *recon.Arena, ev *recon.Event) (*recon.Matrix, error) {
	if err := e.inj.before(ctx, "embed", Key(ev)); err != nil {
		return nil, err
	}
	return e.inner.Embed(ctx, a, ev)
}

type builder struct {
	inner recon.GraphBuilder
	inj   *Injector
}

func (b builder) BuildEdges(ctx context.Context, a *recon.Arena, ev *recon.Event, embed func() (*recon.Matrix, error)) ([]int, []int, error) {
	if err := b.inj.before(ctx, "build", Key(ev)); err != nil {
		return nil, nil, err
	}
	return b.inner.BuildEdges(ctx, a, ev, embed)
}

type filter struct {
	inner recon.EdgeFilter
	inj   *Injector
}

func (f filter) FilterEdges(ctx context.Context, a *recon.Arena, ev *recon.Event, src, dst []int) ([]int, []int, error) {
	if err := f.inj.before(ctx, "filter", Key(ev)); err != nil {
		return nil, nil, err
	}
	return f.inner.FilterEdges(ctx, a, ev, src, dst)
}

type classifier struct {
	inner recon.EdgeClassifier
	inj   *Injector
}

func (c classifier) ScoreEdges(ctx context.Context, a *recon.Arena, eg *recon.EventGraph) ([]float64, error) {
	if err := c.inj.before(ctx, "classify", Key(eg.Event)); err != nil {
		return nil, err
	}
	return c.inner.ScoreEdges(ctx, a, eg)
}

type extractor struct {
	inner recon.TrackExtractor
	inj   *Injector
}

func (x extractor) ExtractTracks(ctx context.Context, eg *recon.EventGraph, keep []bool) ([][]int, error) {
	if err := x.inj.before(ctx, "extract", Key(eg.Event)); err != nil {
		return nil, err
	}
	return x.inner.ExtractTracks(ctx, eg, keep)
}

// WrapEmbedder and friends implement recon.StageWrapper.
func (inj *Injector) WrapEmbedder(e recon.Embedder) recon.Embedder { return embedder{e, inj} }

func (inj *Injector) WrapGraphBuilder(b recon.GraphBuilder) recon.GraphBuilder {
	return builder{b, inj}
}

func (inj *Injector) WrapEdgeFilter(f recon.EdgeFilter) recon.EdgeFilter { return filter{f, inj} }

func (inj *Injector) WrapEdgeClassifier(c recon.EdgeClassifier) recon.EdgeClassifier {
	return classifier{c, inj}
}

func (inj *Injector) WrapTrackExtractor(x recon.TrackExtractor) recon.TrackExtractor {
	return extractor{x, inj}
}
