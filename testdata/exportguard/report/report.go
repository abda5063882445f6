// Package report is a library package outside internal/: the rule holds
// in every package that is not a command.
package report

import "fmt"

// Line formats one measurement; the program calls it.
func Line(v float64) string { return fmt.Sprintf("%.2f", v) }

// Lines formats several measurements, but nothing calls it.
func Lines(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = Line(v)
	}
	return out
}
