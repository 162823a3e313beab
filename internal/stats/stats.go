// Package stats provides the statistical machinery the paper's evaluation
// relies on: descriptive statistics, harmonic numbers (the normalization
// constant of the paper's utility function, Definition 2), the Wilcoxon
// signed-rank test (used in Section 5 to assess significance of the
// effectiveness differences), and least-squares fitting used by the
// Table 1 empirical-complexity harness.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if fewer than two
// samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// harmonicCache memoizes small harmonic numbers; H_n for the paper's
// utility normalization is always bounded by the (small) size of the
// per-specialization result lists R_q', so the cache covers the common case.
var harmonicCache = func() []float64 {
	c := make([]float64, 257)
	for i := 1; i < len(c); i++ {
		c[i] = c[i-1] + 1/float64(i)
	}
	return c
}()

// Harmonic returns the n-th harmonic number H_n = sum_{i=1..n} 1/i.
// H_0 = 0. This is the normalization factor of the paper's Definition 2:
// U~(d|R_q') = U(d|R_q') / H_{|R_q'|}.
func Harmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < len(harmonicCache) {
		return harmonicCache[n]
	}
	h := harmonicCache[len(harmonicCache)-1]
	for i := len(harmonicCache); i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// Linear holds the result of an ordinary least-squares fit y = a + b*x.
type Linear struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// ErrDegenerateFit is returned when a regression has fewer than two
// distinct x values.
var ErrDegenerateFit = errors.New("stats: degenerate regression input")

// FitLinear computes an ordinary least-squares fit of y on x.
func FitLinear(x, y []float64) (Linear, error) {
	if len(x) != len(y) || len(x) < 2 {
		return Linear{}, ErrDegenerateFit
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, ErrDegenerateFit
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range x {
			r := y[i] - (a + b*x[i])
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return Linear{Intercept: a, Slope: b, R2: r2}, nil
}

// FitPowerLaw fits y = c * x^e by least squares in log-log space and
// returns the exponent e, the constant c, and the log-space R^2. It is used
// to recover the empirical complexity exponents of Table 1 (e.g. time vs k
// should fit e ~= 1 for IASelect/xQuAD and e ~= 0 for OptSelect's log k
// term). All inputs must be strictly positive.
func FitPowerLaw(x, y []float64) (exponent, constant, r2 float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0, ErrDegenerateFit
	}
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return 0, 0, 0, errors.New("stats: FitPowerLaw requires positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	fit, err := FitLinear(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}
