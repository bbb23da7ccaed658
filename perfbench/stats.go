package main

import (
	"math"
	"sort"
	"time"
)

// summary is a distribution's sample count and quartiles.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail returns the highest order statistic with at least ten samples above
// it, and the percentile it sits at. With fewer than eleven samples there
// is no such statistic, and the maximum is returned at the 100th.
func tail(xs []float64) (value, percentile float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0 (no attempts, so nothing was wasted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
