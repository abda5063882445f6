package metrics

import (
	"math"
	"testing"
	"time"
)

func TestBinaryCountsBasics(t *testing.T) {
	var c BinaryCounts
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 || c.Accuracy() != 0.5 {
		t.Fatalf("p=%v r=%v a=%v", c.Precision(), c.Recall(), c.Accuracy())
	}
	if math.Abs(c.F1()-0.5) > 1e-12 {
		t.Fatalf("f1=%v", c.F1())
	}
}

func TestBinaryCountsEmpty(t *testing.T) {
	var c BinaryCounts
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty counts should yield zeros")
	}
}

func TestMerge(t *testing.T) {
	a := BinaryCounts{TP: 1, FP: 2, TN: 3, FN: 4}
	b := BinaryCounts{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Merge(b)
	if a.TP != 11 || a.FP != 22 || a.TN != 33 || a.FN != 44 {
		t.Fatalf("merged %+v", a)
	}
}

func TestFromScores(t *testing.T) {
	scores := []float64{0.9, 0.2, 0.7, 0.1}
	labels := []float64{1, 0, 0, 1}
	c := FromScores(scores, labels, 0.5)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestAUCPerfect(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []float64{0, 0, 1, 1}
	if auc := AUC(scores, labels); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC %v", auc)
	}
	inverted := []float64{0.9, 0.8, 0.2, 0.1}
	if auc := AUC(inverted, labels); math.Abs(auc) > 1e-12 {
		t.Fatalf("inverted AUC %v", auc)
	}
}

func TestAUCRandomAndDegenerate(t *testing.T) {
	// Constant scores: every ordering tied → 0.5.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []float64{1, 0, 1, 0}
	if auc := AUC(scores, labels); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC %v", auc)
	}
	if auc := AUC([]float64{1, 2}, []float64{1, 1}); auc != 0.5 {
		t.Fatalf("single-class AUC %v", auc)
	}
}

func TestMatchTracksPerfect(t *testing.T) {
	hitParticle := []int{0, 0, 0, 1, 1, 1, -1}
	trueHits := map[int]int{0: 3, 1: 3}
	candidates := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	tm := MatchTracks(candidates, hitParticle, trueHits, 3)
	if tm.Efficiency() != 1.0 {
		t.Fatalf("efficiency %v", tm.Efficiency())
	}
	if tm.FakeRate() != 0 {
		t.Fatalf("fake rate %v", tm.FakeRate())
	}
	if tm.Candidates != 2 { // the singleton is below minHits
		t.Fatalf("candidates %d", tm.Candidates)
	}
}

func TestMatchTracksSplitTrack(t *testing.T) {
	// Track 0 split into two halves: neither half holds a majority of the
	// 6-hit truth, so the particle is unmatched and both halves are fakes.
	hitParticle := []int{0, 0, 0, 0, 0, 0}
	trueHits := map[int]int{0: 6}
	candidates := [][]int{{0, 1, 2}, {3, 4, 5}}
	tm := MatchTracks(candidates, hitParticle, trueHits, 3)
	if tm.Matched != 0 || tm.Fakes != 2 {
		t.Fatalf("split track: matched %d fakes %d", tm.Matched, tm.Fakes)
	}
}

func TestMatchTracksMergedFake(t *testing.T) {
	// A candidate mixing two particles equally matches neither.
	hitParticle := []int{0, 0, 1, 1}
	trueHits := map[int]int{0: 2, 1: 2}
	candidates := [][]int{{0, 1, 2, 3}}
	tm := MatchTracks(candidates, hitParticle, trueHits, 2)
	if tm.Matched != 0 || tm.Fakes != 1 {
		t.Fatalf("merged: matched %d fakes %d", tm.Matched, tm.Fakes)
	}
}

func TestMatchTracksDoubleMatchCountsOnce(t *testing.T) {
	hitParticle := []int{0, 0, 0, 0}
	trueHits := map[int]int{0: 4}
	// Both candidates claim particle 0; only one can match (first wins),
	// but the second fails double-majority anyway (2 hits of 4).
	candidates := [][]int{{0, 1, 2}, {2, 3}}
	tm := MatchTracks(candidates, hitParticle, trueHits, 2)
	if tm.Matched != 1 {
		t.Fatalf("matched %d, want 1", tm.Matched)
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer()
	pt.AddDuration(PhaseSampling, 100*time.Millisecond)
	pt.AddDuration(PhaseTraining, 50*time.Millisecond)
	pt.AddDuration(PhaseSampling, 25*time.Millisecond)
	if pt.Get(PhaseSampling) != 125*time.Millisecond {
		t.Fatalf("sampling %v", pt.Get(PhaseSampling))
	}
	if pt.Total() != 175*time.Millisecond {
		t.Fatalf("total %v", pt.Total())
	}
	other := NewPhaseTimer()
	other.AddDuration(PhaseAllReduce, time.Second)
	pt.Merge(other)
	if pt.Get(PhaseAllReduce) != time.Second {
		t.Fatal("merge lost allreduce")
	}
}

func TestHistory(t *testing.T) {
	var h History
	h.Append(ConvergencePoint{Epoch: 0, Precision: 0.5, Recall: 0.4})
	h.Append(ConvergencePoint{Epoch: 1, Precision: 0.8, Recall: 0.7})
	h.Append(ConvergencePoint{Epoch: 2, Precision: 0.75, Recall: 0.72})
	if h.Final().Epoch != 2 {
		t.Fatalf("final %+v", h.Final())
	}
	if h.Final().Precision != 0.75 || h.Final().Recall != 0.72 {
		t.Fatalf("final p=%v r=%v", h.Final().Precision, h.Final().Recall)
	}
	var empty History
	if empty.Final() != (ConvergencePoint{}) {
		t.Fatal("empty history should zero")
	}
}
