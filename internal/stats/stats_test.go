package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("Mean = %f, want 5", m)
	}
	// Sample variance of the classic dataset: ss = 32, n-1 = 7.
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %f, want %f", v, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single sample != 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %f/%f", Min(xs), Max(xs))
	}
	defer func() {
		if recover() == nil {
			t.Error("Min(empty) did not panic")
		}
	}()
	Min(nil)
}

func TestHarmonic(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{-3, 0},
		{1, 1},
		{2, 1.5},
		{3, 1 + 0.5 + 1.0/3},
		{20, 3.597739657143682},
	}
	for _, c := range cases {
		if got := Harmonic(c.n); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Harmonic(%d) = %.15f, want %.15f", c.n, got, c.want)
		}
	}
	// Beyond the cache.
	h1000 := Harmonic(1000)
	// H_1000 ~= ln(1000) + gamma + 1/2000
	approx := math.Log(1000) + 0.5772156649 + 1.0/2000
	if !almostEq(h1000, approx, 1e-4) {
		t.Errorf("Harmonic(1000) = %f, approx %f", h1000, approx)
	}
}

func TestHarmonicMonotone(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 600; n++ {
		h := Harmonic(n)
		if h <= prev {
			t.Fatalf("Harmonic not strictly increasing at n=%d", n)
		}
		if diff := h - prev; !almostEq(diff, 1/float64(n), 1e-12) {
			t.Fatalf("Harmonic(%d)-Harmonic(%d) = %g, want %g", n, n-1, diff, 1/float64(n))
		}
		prev = h
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point fit did not fail")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant-x fit did not fail")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch did not fail")
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 3 * x^1.7
	x := []float64{1, 2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 * math.Pow(x[i], 1.7)
	}
	e, c, r2, err := FitPowerLaw(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e, 1.7, 1e-9) || !almostEq(c, 3, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Errorf("power fit = e %f c %f r2 %f", e, c, r2)
	}
	if _, _, _, err := FitPowerLaw([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("non-positive input did not fail")
	}
}

func TestWilcoxonKnownExample(t *testing.T) {
	// Classic textbook example (n=10, no ties after differencing).
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125, 140, 135}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137, 135, 145}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 9 { // one zero difference dropped
		t.Errorf("N = %d, want 9", res.N)
	}
	// The |differences| contain ties (two 5s), so the implementation must
	// fall back to the tie-corrected normal approximation.
	if res.Exact {
		t.Error("expected normal approximation: |d| values are tied")
	}
	if res.WPlus+res.WMinus != float64(res.N*(res.N+1))/2 {
		t.Errorf("rank sums %f+%f != n(n+1)/2", res.WPlus, res.WMinus)
	}
	if res.P <= 0 || res.P > 1 {
		t.Errorf("p = %f out of range", res.P)
	}
	if res.P < 0.05 {
		t.Errorf("p = %f; this example is famously non-significant", res.P)
	}
}

func TestWilcoxonIdenticalSamples(t *testing.T) {
	x := []float64{1, 2, 3}
	if _, err := Wilcoxon(x, x); err != ErrNoDifferences {
		t.Errorf("err = %v, want ErrNoDifferences", err)
	}
	if SignificantlyDifferent(x, x, 0.05) {
		t.Error("identical samples reported significant")
	}
}

func TestWilcoxonLengthMismatch(t *testing.T) {
	if _, err := Wilcoxon([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestWilcoxonClearDifference(t *testing.T) {
	// x uniformly much larger than y: should be significant.
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = float64(i) + 100
		y[i] = float64(i)
	}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Errorf("p = %f, want < 0.01 for a uniform +100 shift", res.P)
	}
	if res.WMinus != 0 {
		t.Errorf("WMinus = %f, want 0", res.WMinus)
	}
}

func TestWilcoxonExactMatchesKnownTable(t *testing.T) {
	// For n=5, the exact null distribution of W+ over 32 assignments:
	// P(W <= 0) two-sided = 2/32 = 0.0625.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10} // all differences negative, distinct magnitudes
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.W != 0 {
		t.Fatalf("W = %f, want 0", res.W)
	}
	if !almostEq(res.P, 0.0625, 1e-12) {
		t.Errorf("p = %f, want 0.0625", res.P)
	}
}

func TestWilcoxonNormalApproxLargeN(t *testing.T) {
	// n=30 forces the normal approximation path.
	x := make([]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		x[i] = float64(i%7) + 0.1*float64(i)
		y[i] = x[i]
		if i%2 == 0 {
			y[i] += 0.5
		} else {
			y[i] -= 0.5
		}
	}
	res, err := Wilcoxon(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("expected normal approximation for n=30 with ties")
	}
	if res.P < 0.5 {
		t.Errorf("balanced +-0.5 shifts should be far from significant, p = %f", res.P)
	}
}

// Property: the p-value is always in (0, 1], and rank sums account for all
// n(n+1)/2 rank mass.
func TestWilcoxonProperty(t *testing.T) {
	prop := func(seedVals []float64) bool {
		if len(seedVals) < 2 {
			return true
		}
		if len(seedVals) > 40 {
			seedVals = seedVals[:40]
		}
		x := make([]float64, len(seedVals))
		y := make([]float64, len(seedVals))
		for i, v := range seedVals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			x[i] = v
			y[i] = -v / 2
		}
		res, err := Wilcoxon(x, y)
		if err == ErrNoDifferences {
			return true
		}
		if err != nil {
			return false
		}
		if res.P <= 0 || res.P > 1 {
			return false
		}
		want := float64(res.N*(res.N+1)) / 2
		return almostEq(res.WPlus+res.WMinus, want, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := normalCDF(c.z); !almostEq(got, c.want, 1e-4) {
			t.Errorf("normalCDF(%f) = %f, want %f", c.z, got, c.want)
		}
	}
}

// Verify the exact null distribution against published Wilcoxon critical
// values: for a two-sided test at alpha = 0.05, the critical W is 0 for
// n=6, 2 for n=8, 8 for n=10, 13 for n=12 (Wilcoxon tables). A statistic
// at the critical value must be significant (p <= 0.05), one just above
// must not.
func TestWilcoxonCriticalValues(t *testing.T) {
	cases := []struct {
		n        int
		critical float64
	}{
		{6, 0}, {8, 3}, {10, 8}, {12, 13}, {14, 21},
	}
	for _, c := range cases {
		atCrit := wilcoxonExactP(c.n, c.critical)
		if atCrit > 0.05 {
			t.Errorf("n=%d: p(W=%g) = %f, want <= 0.05", c.n, c.critical, atCrit)
		}
		above := wilcoxonExactP(c.n, c.critical+2)
		if above <= 0.05 {
			t.Errorf("n=%d: p(W=%g) = %f, want > 0.05", c.n, c.critical+2, above)
		}
	}
}

// The exact distribution must be symmetric: P(W <= w) computed from below
// equals P(W >= total - w) from above, so p(w) is monotone in w.
func TestWilcoxonExactMonotone(t *testing.T) {
	for n := 3; n <= 12; n++ {
		prev := 0.0
		for w := 0; w <= n*(n+1)/4; w++ {
			p := wilcoxonExactP(n, float64(w))
			if p < prev-1e-12 {
				t.Fatalf("n=%d: p decreased at w=%d", n, w)
			}
			prev = p
		}
		// The full-range statistic gives p = 1.
		if p := wilcoxonExactP(n, float64(n*(n+1)/2)); p != 1 {
			t.Fatalf("n=%d: p at max W = %f", n, p)
		}
	}
}

// Property: FitPowerLaw recovers exponents from noise-free power laws for
// arbitrary positive constants and exponents.
func TestFitPowerLawProperty(t *testing.T) {
	prop := func(eRaw, cRaw uint16) bool {
		e := -2 + 4*float64(eRaw)/65535.0 // e in [-2, 2]
		c := 0.1 + 10*float64(cRaw)/65535.0
		x := []float64{1, 2, 4, 8, 16}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = c * math.Pow(x[i], e)
		}
		gotE, gotC, r2, err := FitPowerLaw(x, y)
		if err != nil {
			return false
		}
		return almostEq(gotE, e, 1e-6) && almostEq(gotC, c, 1e-6) && almostEq(r2, 1, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
