package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of an ascending-sorted sample by
// linear interpolation between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
