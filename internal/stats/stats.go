// Package stats supplies the small statistics toolkit used by the
// evaluation harness: empirical quantiles (Figs. 12 and 14 of the paper),
// lag-1 autocorrelation (the paper's uncorrelatedness check for
// Solution C), a uniformity test, and summary helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Lag1Autocorrelation computes the lag-1 autocorrelation coefficient of
// xs. The paper uses this to argue Solution C's compression errors are
// uncorrelated (coefficients within [-1E-4, 1E-4] on dense data).
func Lag1Autocorrelation(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+1 < n {
			num += d * (xs[i+1] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the extrema of xs. It panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by
// nearest-rank on a sorted copy.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	return s[int(q*float64(len(s)-1)+0.5)]
}

// UniformityKS returns the Kolmogorov–Smirnov statistic of xs against the
// uniform distribution on [lo, hi]: the max deviation between the
// empirical CDF and the uniform CDF. Small values (≲ 1.36/sqrt(n) at 5%
// significance) mean "consistent with uniform" — the paper's observation
// for Solution C's normalized errors (Fig. 14).
func UniformityKS(xs []float64, lo, hi float64) float64 {
	n := len(xs)
	if n == 0 || hi <= lo {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var d float64
	for i, x := range s {
		u := (x - lo) / (hi - lo)
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		e0 := float64(i) / float64(n)
		e1 := float64(i+1) / float64(n)
		d = math.Max(d, math.Max(math.Abs(e0-u), math.Abs(e1-u)))
	}
	return d
}

// FormatBytes renders a byte count using binary units, matching the
// paper's TB/PB/EB table style.
func FormatBytes(b float64) string {
	units := []string{"B", "KB", "MB", "GB", "TB", "PB", "EB", "ZB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if b == math.Trunc(b) {
		return fmt.Sprintf("%.0f %s", b, units[i])
	}
	return fmt.Sprintf("%.2f %s", b, units[i])
}
