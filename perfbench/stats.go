package main

import (
	"errors"
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample count below which a p99 is refused: with
// fewer, the "tail" is a handful of points and moves with every run.
const minTailSamples = 1000

var errTooFewSamples = errors.New("too few samples for a p99")

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule on a sorted copy. A p99 (q >= 0.99) needs at least minTailSamples.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("percentile of no samples")
	}
	if q >= 0.99 && len(xs) < minTailSamples {
		return 0, errTooFewSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median of xs (mean of the middle pair for even counts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durationsMs converts latencies to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// durationsUs converts spans to microseconds.
func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// p50 is the median by the nearest-rank rule, 0 for no samples (a layer
// that did no work on this workload reads 0).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// p99OrZero is the p99 of a per-layer span, 0 when the layer did no work.
// Per-layer tails are reported with whatever samples exist; the
// minTailSamples rule guards the end-to-end latencies, which go through
// percentile directly.
func p99OrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
