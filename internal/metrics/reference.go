package metrics

import "sort"

// This file holds the scores that tests judge models and pipelines by
// and no program reports.

// F1 returns the harmonic mean of precision and recall.
func (c BinaryCounts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total, 0 when empty.
func (c BinaryCounts) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// AUC computes the area under the ROC curve by the rank statistic
// (ties handled by midranks). Returns 0.5 for degenerate label sets.
func AUC(scores, labels []float64) float64 {
	if len(scores) != len(labels) {
		panic("metrics: scores/labels length mismatch")
	}
	type pair struct{ s, y float64 }
	ps := make([]pair, len(scores))
	nPos, nNeg := 0, 0
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
		if labels[i] > 0.5 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })
	// Midrank sum of positives.
	rankSum := 0.0
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if ps[k].y > 0.5 {
				rankSum += midrank
			}
		}
		i = j
	}
	return (rankSum - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}
