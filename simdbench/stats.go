package main

import (
	"slices"
	"time"
)

// median is the middle value of xs (the mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf is the largest value of xs, or 0 for an empty sample.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// tailMinSamples is the sample count from which the tail percentile rule
// gives a percentile at or above the median; below it the tail is the
// maximum.
const tailMinSamples = 20

// tail reports the highest percentile of xs that has at least ten samples
// beyond it, with that percentile and the sample count. With fewer than
// tailMinSamples samples no such percentile lies above the median, so the
// maximum is reported as percentile 100.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n < tailMinSamples {
		return s[n-1], 100, n
	}
	i := n - 11 // s[i] has exactly ten samples above it
	return s[i], 100 * float64(i+1) / float64(n), n
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp times fn per call: it runs fn in batches until each of five rounds
// has used at least budget/5, and returns the median nanoseconds per call.
func perOp(budget time.Duration, fn func()) float64 {
	const rounds = 5
	per := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < budget/rounds {
			for i := 0; i < 16; i++ {
				fn()
			}
			calls += 16
		}
		per = append(per, float64(time.Since(start))/float64(calls))
	}
	return median(per)
}
