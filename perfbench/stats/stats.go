// Package stats holds the order statistics the benchmark reports:
// nearest-rank percentiles, the tail-percentile rule and medians.
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which must be sorted ascending. It returns 0 for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// Median sorts a copy of xs and returns its nearest-rank median.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	return Percentile(s, 0.5)
}

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// MinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const MinBeyond = 10

// tailCandidates are the tail percentiles in per-mille, highest first.
// p50 is the floor for small samples; below 2*MinBeyond samples the
// maximum is all that is left.
var tailCandidates = []int{999, 990, 900, 500}

// Tail is the chosen tail percentile of a sample.
type Tail struct {
	// PerMille is the chosen percentile in per-mille (999 = p99.9);
	// 1000 means the sample was too small for any candidate and Value
	// is its maximum.
	PerMille int
	// Value is the sample's PerMille-th percentile.
	Value float64
	// N is the sample count and Beyond the samples past the percentile.
	N, Beyond int
}

// Label renders the percentile as "p99.9", "p99", "p90", "p50" or "max".
func (t Tail) Label() string {
	switch t.PerMille {
	case 999:
		return "p99.9"
	case 990:
		return "p99"
	case 900:
		return "p90"
	case 500:
		return "p50"
	default:
		return "max"
	}
}

// SelectTail picks the highest of p99.9, p99, p90 (then p50) that keeps at
// least MinBeyond samples beyond it: p99.9 needs 10,000 samples, p99
// 1,000 and p90 100. sorted must be ascending and non-empty.
func SelectTail(sorted []float64) Tail {
	n := len(sorted)
	for _, pm := range tailCandidates {
		if beyond := n * (1000 - pm) / 1000; beyond >= MinBeyond {
			return Tail{PerMille: pm, Value: Percentile(sorted, float64(pm)/1000), N: n, Beyond: beyond}
		}
	}
	t := Tail{PerMille: 1000, N: n}
	if n > 0 {
		t.Value = sorted[n-1]
	}
	return t
}

// Ms converts a duration to float milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Us converts a duration to float microseconds.
func Us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
