// Package metrics implements the evaluation quantities the paper reports:
// edge-classification precision and recall (Figure 4), AUC, track-level
// efficiency and fake rate, and the per-phase epoch timers behind the
// stacked bars of Figure 3 (Sampling / Training / AllReduce).
package metrics

import (
	"fmt"
	"time"
)

// BinaryCounts is a binary-classification confusion summary.
type BinaryCounts struct {
	TP, FP, TN, FN int
}

// Add accumulates one prediction.
func (c *BinaryCounts) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Merge accumulates another count set.
func (c *BinaryCounts) Merge(o BinaryCounts) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c BinaryCounts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c BinaryCounts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FromScores thresholds scores at thresh against binary labels.
func FromScores(scores, labels []float64, thresh float64) BinaryCounts {
	if len(scores) != len(labels) {
		panic("metrics: scores/labels length mismatch")
	}
	var c BinaryCounts
	for i, s := range scores {
		c.Add(s >= thresh, labels[i] > 0.5)
	}
	return c
}

// TrackMatch summarizes track-level reconstruction quality under the
// double-majority matching rule: a reconstructed candidate matches a
// particle when more than half of the candidate's hits come from the
// particle and the candidate contains more than half of the particle's
// hits.
type TrackMatch struct {
	Reconstructable int // particles with ≥ minHits hits
	Matched         int // particles matched by some candidate
	Candidates      int // reconstructed candidates with ≥ minHits hits
	Fakes           int // candidates matching no particle
}

// Efficiency is matched/reconstructable.
func (t TrackMatch) Efficiency() float64 {
	if t.Reconstructable == 0 {
		return 0
	}
	return float64(t.Matched) / float64(t.Reconstructable)
}

// FakeRate is fakes/candidates.
func (t TrackMatch) FakeRate() float64 {
	if t.Candidates == 0 {
		return 0
	}
	return float64(t.Fakes) / float64(t.Candidates)
}

// MatchTracks applies double-majority matching. candidates are hit-index
// sets (the connected components); hitParticle maps hit→particle id (-1
// noise); trueHits maps each reconstructable particle (one with at least
// minHits hits) to its hit count; candidates below minHits are skipped.
func MatchTracks(candidates [][]int, hitParticle []int, trueHits map[int]int, minHits int) TrackMatch {
	var tm TrackMatch
	tm.Reconstructable = len(trueHits)
	matched := make(map[int]bool)
	for _, cand := range candidates {
		if len(cand) < minHits {
			continue
		}
		tm.Candidates++
		// Majority particle within the candidate.
		counts := make(map[int]int)
		for _, h := range cand {
			if p := hitParticle[h]; p >= 0 {
				counts[p]++
			}
		}
		best, bestN := -1, 0
		for p, n := range counts {
			if n > bestN {
				best, bestN = p, n
			}
		}
		truthN, ok := trueHits[best]
		if best >= 0 && ok &&
			2*bestN > len(cand) && // candidate majority from particle
			2*bestN > truthN { // candidate holds particle majority
			if !matched[best] {
				matched[best] = true
				tm.Matched++
			}
		} else {
			tm.Fakes++
		}
	}
	return tm
}

// Phase identifies one component of the epoch-time breakdown in Figure 3.
type Phase string

// The phases of Figure 3's stacked bars.
const (
	PhaseSampling  Phase = "Sampling"
	PhaseTraining  Phase = "Training"
	PhaseAllReduce Phase = "AllReduce"
)

// PhaseTimer accumulates wall-clock per phase.
type PhaseTimer struct {
	durations map[Phase]time.Duration
}

// NewPhaseTimer returns an empty timer.
func NewPhaseTimer() *PhaseTimer {
	return &PhaseTimer{durations: make(map[Phase]time.Duration)}
}

// AddDuration adds d to the phase total.
func (p *PhaseTimer) AddDuration(ph Phase, d time.Duration) {
	p.durations[ph] += d
}

// Get returns the accumulated duration of a phase.
func (p *PhaseTimer) Get(ph Phase) time.Duration { return p.durations[ph] }

// Total returns the sum over all phases.
func (p *PhaseTimer) Total() time.Duration {
	var t time.Duration
	for _, d := range p.durations {
		t += d
	}
	return t
}

// String renders the breakdown in a stable order.
func (p *PhaseTimer) String() string {
	return fmt.Sprintf("sampling=%v training=%v allreduce=%v",
		p.Get(PhaseSampling).Round(time.Microsecond),
		p.Get(PhaseTraining).Round(time.Microsecond),
		p.Get(PhaseAllReduce).Round(time.Microsecond))
}

// ConvergencePoint is one epoch of Figure 4.
type ConvergencePoint struct {
	Epoch             int
	Loss              float64
	Precision, Recall float64
}

// History is a training convergence record.
type History struct {
	Points []ConvergencePoint
}

// Append adds one epoch's numbers.
func (h *History) Append(p ConvergencePoint) { h.Points = append(h.Points, p) }

// Final returns the last recorded point (zero value when empty).
func (h *History) Final() ConvergencePoint {
	if len(h.Points) == 0 {
		return ConvergencePoint{}
	}
	return h.Points[len(h.Points)-1]
}
